package fec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// MaxShares is the largest total number of distinct shares (data + repair)
// a single codec can produce, bounded by the field size.
const MaxShares = 255

// Codec is a systematic Reed–Solomon erasure codec for groups of K data
// shares. Share indices 0..K-1 are the data shares verbatim; indices
// K..MaxShares-1 are repair shares. Any K shares with distinct indices
// reconstruct the group. A Codec is immutable once NewCodec returns —
// every method only reads the generator — so one instance is shared by
// all agents, shards and ensemble workers without synchronization.
type Codec struct {
	k   int
	gen *matrix // MaxShares × k systematic generator: top k rows = identity
}

// codecCache memoizes NewCodec per k: the Vandermonde build plus
// systematic transform is O(MaxShares·k²) — far too expensive to repeat
// for every agent in a large topology. The generator is the only thing
// memoized; decode matrices are derived from the erasures on every call
// (see Reconstruct).
var codecCache struct {
	mu  sync.Mutex
	byK [MaxShares + 1]*Codec
}

// NewCodec returns the codec for groups of k data shares
// (1 <= k <= MaxShares). Codecs are memoized per k and shared: the
// returned value may be the same instance across calls (and goroutines).
func NewCodec(k int) (*Codec, error) {
	if k < 1 || k > MaxShares {
		return nil, fmt.Errorf("fec: k must be in [1, %d], got %d", MaxShares, k)
	}
	codecCache.mu.Lock()
	defer codecCache.mu.Unlock()
	if c := codecCache.byK[k]; c != nil {
		return c, nil
	}
	// Systematic transform: V × (top k rows of V)⁻¹ has the identity on
	// top, so data shares are sent verbatim.
	v := vandermonde(MaxShares, k)
	top := matrix{rows: k, cols: k, data: slices.Clone(v.data[:k*k])}
	inv := newMatrix(k, k)
	if !top.invertInto(inv) {
		// Cannot happen: the top k rows of a Vandermonde matrix with
		// distinct points are always invertible.
		return nil, fmt.Errorf("fec: singular Vandermonde block for k=%d", k)
	}
	c := &Codec{k: k, gen: v.mul(inv)}
	codecCache.byK[k] = c
	return c, nil
}

// K returns the number of data shares per group.
func (c *Codec) K() int { return c.k }

// Share is one encoded share of a group.
type Share struct {
	// Index identifies the share: 0..K-1 are data shares, >= K repairs.
	Index int
	// Data is the share payload. All shares of a group have equal length.
	Data []byte
}

// Repair produces the repair share with the given index (K <= index <
// MaxShares) from the full set of data shares. data must contain exactly K
// equal-length slices.
func (c *Codec) Repair(data [][]byte, index int) (Share, error) {
	if err := c.checkData(data); err != nil {
		return Share{}, err
	}
	if index < c.k || index >= MaxShares {
		return Share{}, fmt.Errorf("fec: repair index %d out of range [%d, %d)", index, c.k, MaxShares)
	}
	out := make([]byte, len(data[0]))
	c.repairInto(out, data, index)
	return Share{Index: index, Data: out}, nil
}

// repairInto accumulates the repair share for index into out (assumed
// zeroed, length len(data[0])).
func (c *Codec) repairInto(out []byte, data [][]byte, index int) {
	row := c.gen.row(index)
	for j, coeff := range row {
		addMulSlice(out, data[j], coeff)
	}
}

// Repairs produces h consecutive repair shares starting at index K. The
// share payloads are carved from one contiguous allocation.
func (c *Codec) Repairs(data [][]byte, h int) ([]Share, error) {
	if h < 0 || c.k+h > MaxShares {
		return nil, fmt.Errorf("fec: cannot produce %d repairs for k=%d", h, c.k)
	}
	if err := c.checkData(data); err != nil {
		return nil, err
	}
	size := len(data[0])
	slab := make([]byte, h*size)
	shares := make([]Share, h)
	for i := 0; i < h; i++ {
		buf := slab[i*size : (i+1)*size : (i+1)*size]
		c.repairInto(buf, data, c.k+i)
		shares[i] = Share{Index: c.k + i, Data: buf}
	}
	return shares, nil
}

// ErrInsufficientShares is returned by Reconstruct and Decode when fewer
// than K distinct shares are supplied.
var ErrInsufficientShares = errors.New("fec: insufficient shares to decode")

// stackMissing is the largest number of missing data shares Reconstruct
// solves on stack scratch. The paper's groups are k = 16, so every decode
// the protocol makes fits; a larger system takes one heap scratch.
const stackMissing = 16

// Reconstruct fills in the missing data shares of a group in place. held
// is indexed by share index: held[i] is share i's payload, nil when it is
// not held (a zero-length share is a non-nil empty slice). On success
// held[0:K] are the original data shares: those that were present are
// left as they were (by reference, not copied — treat share buffers as
// immutable), the missing ones are carved from one new allocation, and
// repair entries are untouched. A slice shorter than K, or holding fewer
// than K shares, is ErrInsufficientShares; on any error held is unchanged.
//
// The shares decoded from are the K lowest-indexed ones held — every held
// data share, then as many repairs as data shares are missing — so the
// result never depends on the order shares arrived in, and surplus shares
// are ignored. The work follows the erasures, not the code dimension:
// with m data shares missing only the m×m system relating them to the m
// repairs is inverted, and nothing is when m = 0.
func (c *Codec) Reconstruct(held [][]byte) error {
	k := c.k
	if len(held) > MaxShares {
		return fmt.Errorf("fec: %d share slots, only %d indices exist", len(held), MaxShares)
	}
	var src, miss [MaxShares]uint8 // indices decoded from / to, ascending
	n, m := 0, 0
	for i := 0; i < len(held) && n < k; i++ {
		switch {
		case held[i] != nil:
			src[n] = uint8(i)
			n++
		case i < k:
			miss[m] = uint8(i)
			m++
		}
	}
	if n < k {
		return fmt.Errorf("%w: have %d distinct, need %d", ErrInsufficientShares, n, k)
	}
	size := len(held[src[0]])
	for _, i := range src[1:k] {
		if len(held[i]) != size {
			return fmt.Errorf("fec: share %d has length %d, want %d", i, len(held[i]), size)
		}
	}
	if m == 0 {
		return nil
	}

	// With D the missing data shares and R the repairs used,
	// R = A·D + B·(held data), where A and B are the repairs' generator
	// columns at the missing and the held positions. So
	// D = A⁻¹·R + (A⁻¹·B)·(held data): invert the m×m block, fold it into
	// the held-data coefficients one generator row at a time, then
	// accumulate each missing share over its k sources.
	rep := src[k-m : k]
	var stack [2 * stackMissing * stackMissing]byte
	scratch := stack[:]
	if 2*m*m > len(scratch) {
		scratch = make([]byte, 2*m*m)
	}
	a := matrix{rows: m, cols: m, data: scratch[:m*m]}
	inv := matrix{rows: m, cols: m, data: scratch[m*m : 2*m*m]}
	for j, r := range rep {
		row := c.gen.row(int(r))
		for t, lost := range miss[:m] {
			a.set(j, t, row[lost])
		}
	}
	if !a.invertInto(&inv) {
		// Cannot happen: any k distinct rows of the systematic
		// Vandermonde generator are linearly independent.
		return fmt.Errorf("fec: singular decode system for %d missing shares", m)
	}
	slab := make([]byte, m*size)
	var coef [MaxShares]byte
	for t, lost := range miss[:m] {
		w := inv.row(t)
		clear(coef[:k])
		for j, r := range rep {
			addMulSlice(coef[:k], c.gen.row(int(r)), w[j])
		}
		buf := slab[t*size : (t+1)*size : (t+1)*size]
		for _, i := range src[:k-m] {
			addMulSlice(buf, held[i], coef[i])
		}
		for j, r := range rep {
			addMulSlice(buf, held[r], w[j])
		}
		held[lost] = buf
	}
	return nil
}

// Decode is the list form of Reconstruct, for callers that hold shares as
// (index, payload) pairs: it reconstructs the K data shares from any K
// (or more) shares with distinct indices. Of shares repeating an index
// the first wins; a nil Data is a zero-length share. The returned slice
// has length K with data[i] the i'th original data share, present ones by
// reference.
func (c *Codec) Decode(shares []Share) ([][]byte, error) {
	n := c.k
	for _, s := range shares {
		if s.Index < 0 || s.Index >= MaxShares {
			return nil, fmt.Errorf("fec: share index %d out of range", s.Index)
		}
		n = max(n, s.Index+1)
	}
	held := make([][]byte, n)
	for _, s := range shares {
		if held[s.Index] != nil {
			continue
		}
		held[s.Index] = s.Data
		if s.Data == nil {
			held[s.Index] = []byte{}
		}
	}
	if err := c.Reconstruct(held); err != nil {
		return nil, err
	}
	return held[:c.k:c.k], nil
}

func (c *Codec) checkData(data [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("fec: need %d data shares, got %d", c.k, len(data))
	}
	for i, d := range data {
		if len(d) != len(data[0]) {
			return fmt.Errorf("fec: data share %d has length %d, want %d", i, len(d), len(data[0]))
		}
	}
	return nil
}
