package fec

// Result-equality tests for the optimized kernels: the table-driven
// mulSlice/addMulSlice and the word-wide XOR path must be byte-identical
// to the retained scalar reference kernels on every length, alignment,
// and coefficient — that equality is what makes the fast paths
// determinism-preserving by construction.

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestGFMulTableMatchesRef(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMul(byte(a), byte(b)), gfMulRef(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d, %d) = %d, ref = %d", a, b, got, want)
			}
		}
	}
}

// TestKernelsMatchScalarReference sweeps random lengths and slice
// offsets — including the unaligned head and the sub-word tail of the
// 8-byte-wide path — for every coefficient class (0, 1, arbitrary).
func TestKernelsMatchScalarReference(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	backing := make([]byte, 4096)
	for i := range backing {
		backing[i] = byte(r.IntN(256))
	}
	coeffs := []byte{0, 1, 2, 3, 37, 128, 254, 255}
	for trial := 0; trial < 500; trial++ {
		off := r.IntN(64)
		length := r.IntN(300) // covers 0, <8 (pure tail), and multi-word
		src := backing[off : off+length]
		c := coeffs[r.IntN(len(coeffs))]
		if trial%3 == 0 {
			c = byte(r.IntN(256))
		}

		dstOpt := make([]byte, length)
		dstRef := make([]byte, length)
		for i := range dstOpt {
			v := byte(r.IntN(256))
			dstOpt[i], dstRef[i] = v, v
		}

		mulSlice(dstOpt, src, c)
		mulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("mulSlice diverges from scalar ref: len=%d off=%d c=%d", length, off, c)
		}

		for i := range dstOpt {
			v := byte(r.IntN(256))
			dstOpt[i], dstRef[i] = v, v
		}
		addMulSlice(dstOpt, src, c)
		addMulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("addMulSlice diverges from scalar ref: len=%d off=%d c=%d", length, off, c)
		}
	}
}

// TestXorSliceUnalignedTail pins the head/tail handling of the word-wide
// XOR path at every length around the 8-byte boundary.
func TestXorSliceUnalignedTail(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for length := 0; length <= 40; length++ {
		src := make([]byte, length)
		dst := make([]byte, length)
		want := make([]byte, length)
		for i := 0; i < length; i++ {
			src[i] = byte(r.IntN(256))
			dst[i] = byte(r.IntN(256))
			want[i] = dst[i] ^ src[i]
		}
		xorSlice(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorSlice wrong at length %d", length)
		}
	}
}

// TestGFPowLargeExponents verifies the mod-255 exponent reduction: a^n
// must equal a^(n mod 255) for exponents far beyond what the unreduced
// gfLog[a]*n product could safely represent, and must stay consistent
// with iterative multiplication.
func TestGFPowLargeExponents(t *testing.T) {
	for _, a := range []byte{1, 2, 3, 29, 255} {
		acc := byte(1)
		for n := 0; n < 600; n++ {
			if got := gfPow(a, n); got != acc {
				t.Fatalf("gfPow(%d, %d) = %d, iterative = %d", a, n, got, acc)
			}
			acc = gfMul(acc, a)
		}
		for _, n := range []int{1 << 20, 1<<40 + 17, 1<<62 - 1} {
			if got, want := gfPow(a, n), gfPow(a, n%255); got != want {
				t.Fatalf("gfPow(%d, %d) = %d, want a^(n mod 255) = %d", a, n, got, want)
			}
		}
	}
	if gfPow(7, -1) != gfInv(7) {
		t.Fatalf("gfPow(7, -1) = %d, want inverse %d", gfPow(7, -1), gfInv(7))
	}
}

// TestNewCodecMemoized pins the memoization contract: same k returns the
// same instance; different k never does.
func TestNewCodecMemoized(t *testing.T) {
	a, err := NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("NewCodec(16) returned distinct instances")
	}
	c, err := NewCodec(17)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("NewCodec(17) returned the k=16 instance")
	}
}

// TestCodecConcurrentDecode hammers one shared codec from many
// goroutines with distinct erasure patterns — the parallel-ensemble and
// shard-worker usage. Every decode reads the one memoized generator, so
// under -race this is the proof that nothing in a Codec is written after
// construction.
func TestCodecConcurrentDecode(t *testing.T) {
	const k = 8
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	data := mkData(rand.New(rand.NewPCG(21, 22)), k, 128)
	repairs, err := c.Repairs(data, k)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 7))
			for iter := 0; iter < 50; iter++ {
				lost := map[int]bool{}
				for len(lost) < 3 {
					lost[r.IntN(k)] = true
				}
				var shares []Share
				ri := 0
				for i := 0; i < k; i++ {
					if lost[i] {
						shares = append(shares, repairs[ri])
						ri++
					} else {
						shares = append(shares, Share{Index: i, Data: data[i]})
					}
				}
				dec, err := c.Decode(shares)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range data {
					if !bytes.Equal(dec[i], data[i]) {
						t.Errorf("worker %d: wrong data at %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzAddMulSliceMatchesRef fuzzes the optimized add-multiply kernel
// against the scalar reference on arbitrary payloads, coefficients, and
// a fuzzer-chosen slice offset (alignment).
func FuzzAddMulSliceMatchesRef(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(37), uint8(1))
	f.Add([]byte{0, 0, 0}, byte(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 64), byte(1), uint8(7))
	f.Fuzz(func(t *testing.T, src []byte, c byte, off uint8) {
		if int(off) > len(src) {
			off = uint8(len(src))
		}
		src = src[off:]
		dstOpt := make([]byte, len(src))
		dstRef := make([]byte, len(src))
		for i := range src {
			dstOpt[i] = src[i] ^ 0x5C
			dstRef[i] = dstOpt[i]
		}
		addMulSlice(dstOpt, src, c)
		addMulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("addMulSlice(c=%d, len=%d) diverges from scalar reference", c, len(src))
		}
	})
}

// FuzzMulSliceMatchesRef is the mulSlice counterpart.
func FuzzMulSliceMatchesRef(f *testing.F) {
	f.Add([]byte{255, 254, 1, 0}, byte(2))
	f.Add([]byte{}, byte(9))
	f.Fuzz(func(t *testing.T, src []byte, c byte) {
		dstOpt := make([]byte, len(src))
		dstRef := make([]byte, len(src))
		mulSlice(dstOpt, src, c)
		mulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("mulSlice(c=%d, len=%d) diverges from scalar reference", c, len(src))
		}
	})
}

// dotRef is dotSlices built from the scalar reference: clear, then
// accumulate every source.
func dotRef(out []byte, srcs [][]byte, coef []byte) {
	clear(out)
	for j, s := range srcs {
		addMulSliceRef(out, s[:len(out)], coef[j])
	}
}

// TestDotMatchesScalarReference covers the lengths the protocol codes
// (its 983-byte share), every length around the 32-byte chunk and the
// overlapping tail, up to 255 sources at unaligned offsets, and the 0 and
// 1 coefficients. out starts dirty: dotSlices must overwrite all of it.
// The portable dotSlicesGeneric is checked the same way, so the fallback
// that non-amd64 builds use is tested on every host.
func TestDotMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	backing := make([]byte, 255*1200)
	for i := range backing {
		backing[i] = byte(r.IntN(256))
	}
	lengths := []int{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 96, 97, 983, 1024, 1100}
	for range 40 {
		lengths = append(lengths, r.IntN(1101))
	}
	for _, k := range []int{1, 2, 16, 40, 255} {
		for _, length := range lengths {
			srcs := make([][]byte, k)
			coef := make([]byte, k)
			for j := range srcs {
				off := j*1200 + r.IntN(64)
				srcs[j] = backing[off : off+length+r.IntN(8)] // sources may run past out
				switch r.IntN(4) {
				case 0:
					coef[j] = 0
				case 1:
					coef[j] = 1
				default:
					coef[j] = byte(r.IntN(256))
				}
			}
			got := make([]byte, length)
			for i := range got {
				got[i] = byte(r.IntN(256))
			}
			got2 := bytes.Clone(got)
			want := make([]byte, length)
			dotSlices(got, srcs, coef)
			dotSlicesGeneric(got2, srcs, coef)
			dotRef(want, srcs, coef)
			if !bytes.Equal(got, want) {
				t.Fatalf("dotSlices diverges from scalar ref: k=%d len=%d", k, length)
			}
			if !bytes.Equal(got2, want) {
				t.Fatalf("dotSlicesGeneric diverges from scalar ref: k=%d len=%d", k, length)
			}
		}
	}
}

// FuzzDotMatchesRef lets the fuzzer choose the number of sources, the
// length, each source's offset and each coefficient: data is read as a
// header (k, length) followed by one (offset, coefficient) pair per
// source, and the rest is the payload the sources are cut from. Both
// dotSlices and the portable dotSlicesGeneric must match the reference.
func FuzzDotMatchesRef(f *testing.F) {
	f.Add([]byte{1, 32, 0, 2}, []byte("0123456789abcdef0123456789abcdefXYZ"))
	f.Add([]byte{3, 33, 1, 0, 2, 1, 3, 255}, bytes.Repeat([]byte{0xA5, 0x3C, 7}, 40))
	f.Add([]byte{16, 200, 0, 9}, bytes.Repeat([]byte{1, 2, 3, 4, 5}, 300))
	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		if len(hdr) < 2 {
			return
		}
		k, length := int(hdr[0]), int(hdr[1])*5 // up to 1,275 bytes
		pairs := hdr[2:]
		srcs := make([][]byte, k)
		coef := make([]byte, k)
		for j := range srcs {
			var off, c byte
			if 2*j+1 < len(pairs) {
				off, c = pairs[2*j], pairs[2*j+1]
			}
			o := int(off) % 64
			if o+length > len(payload) {
				return
			}
			srcs[j], coef[j] = payload[o:o+length], c
		}
		got := bytes.Repeat([]byte{0xEE}, length)
		got2 := bytes.Clone(got)
		want := make([]byte, length)
		dotSlices(got, srcs, coef)
		dotSlicesGeneric(got2, srcs, coef)
		dotRef(want, srcs, coef)
		if !bytes.Equal(got, want) {
			t.Fatalf("dotSlices(k=%d, len=%d) diverges from scalar reference", k, length)
		}
		if !bytes.Equal(got2, want) {
			t.Fatalf("dotSlicesGeneric(k=%d, len=%d) diverges from scalar reference", k, length)
		}
	})
}
