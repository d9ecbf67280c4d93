package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42).Stream("timers")
	b := New(42).Stream("timers")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same (seed,name) diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := New(42)
	a := s.Stream("alpha")
	b := s.Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams alpha/beta agree on %d of 100 draws; not independent", same)
	}
}

func TestStreamNIndependence(t *testing.T) {
	s := New(7)
	seen := map[float64]bool{}
	for n := 0; n < 50; n++ {
		v := s.StreamN("node", n).Float64()
		if seen[v] {
			t.Fatalf("StreamN collision at n=%d", n)
		}
		seen[v] = true
	}
}

func TestStreamNDeterminism(t *testing.T) {
	if New(9).StreamN("x", 3).Float64() != New(9).StreamN("x", 3).Float64() {
		t.Fatal("StreamN not deterministic")
	}
}

func TestSeedsDiffer(t *testing.T) {
	if New(1).Stream("s").Float64() == New(2).Stream("s").Float64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3).Stream("u")
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("Uniform(2.5,7.5) = %v out of range", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := New(3).Stream("u")
	if v := r.Uniform(5, 5); v != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", v)
	}
	if v := r.Uniform(5, 4); v != 5 {
		t.Fatalf("Uniform(5,4) = %v, want lo", v)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(3).Stream("b")
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(99).Stream("rate")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.08) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.08) > 0.005 {
		t.Fatalf("Bernoulli(0.08) empirical rate %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(5).Stream("p").Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) invalid: %v", p)
		}
		seen[v] = true
	}
}

// Property: Uniform always lands in [lo, hi) for lo < hi.
func TestPropertyUniformBounds(t *testing.T) {
	r := New(11).Stream("q")
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if hi <= lo {
			return r.Uniform(lo, hi) == lo
		}
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntNRange(t *testing.T) {
	r := New(13).Stream("i")
	for i := 0; i < 1000; i++ {
		if v := r.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(17).Stream("sh")
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 8)
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(123).Seed() != 123 {
		t.Fatal("Seed accessor wrong")
	}
}

// TestStreamNAllocatesOnce pins a derived stream at one allocation: the
// generator and its PCG state live in one struct.
func TestStreamNAllocatesOnce(t *testing.T) {
	s := New(5)
	if n := testing.AllocsPerRun(100, func() { _ = s.StreamN("node", 7) }); n != 1 {
		t.Errorf("StreamN allocates %v times; want 1", n)
	}
}
