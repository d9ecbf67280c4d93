// Package simrand provides the deterministic random-number streams used by
// the simulator and protocols.
//
// Every simulation owns a single Source seeded from its config. Components
// that need independent randomness (per-node timers, per-link loss draws)
// derive named sub-streams with Stream, so adding a new consumer never
// perturbs the draws seen by existing ones — a property that keeps recorded
// experiment outputs stable as the codebase grows.
package simrand

import (
	"hash/fnv"
	"math/rand/v2"
)

// Source is the root of a simulation's deterministic randomness.
type Source struct {
	seed uint64
}

// New returns a Source for the given seed.
func New(seed uint64) *Source { return &Source{seed: seed} }

// Seed returns the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Stream derives an independent generator identified by name. The same
// (seed, name) pair always yields the same stream.
func (s *Source) Stream(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return newRand(s.seed, h.Sum64())
}

// StreamN derives an independent generator identified by a name and an
// integer (typically a node ID).
func (s *Source) StreamN(name string, n int) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	var buf [8]byte
	v := uint64(n)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return newRand(s.seed, h.Sum64())
}

// StreamN2 derives an independent generator identified by a name and two
// integers (typically a link index and a direction). Like Stream, the
// same (seed, name, a, b) tuple always yields the same stream, and
// deriving one never perturbs any other stream — the property the fault
// engine relies on so unscripted runs stay byte-identical.
func (s *Source) StreamN2(name string, a, b int) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	var buf [16]byte
	va, vb := uint64(a), uint64(b)
	for i := 0; i < 8; i++ {
		buf[i] = byte(va >> (8 * i))
		buf[8+i] = byte(vb >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return newRand(s.seed, h.Sum64())
}

// Rand is a deterministic generator with the helpers the protocols need.
// It holds its PCG state and the rand.Rand drawing from it in one
// allocation.
type Rand struct {
	pcg rand.PCG
	r   rand.Rand
}

func newRand(seed, stream uint64) *Rand {
	x := &Rand{pcg: *rand.NewPCG(seed, stream)}
	x.r = *rand.New(&x.pcg)
	return x
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Uniform returns a uniform value in [lo, hi). It accepts lo >= hi, in
// which case it returns lo (the degenerate interval).
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	// Interpolate rather than offset so extreme ranges cannot overflow
	// past hi.
	f := r.r.Float64()
	v := lo*(1-f) + hi*f
	if v >= hi { // guard rounding at the top of tiny intervals
		v = lo
	}
	return v
}

// IntN returns a uniform int in [0, n). n must be positive.
func (r *Rand) IntN(n int) int { return r.r.IntN(n) }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.r.Shuffle(n, swap) }
