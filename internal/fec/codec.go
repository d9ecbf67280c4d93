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
	dotSlices(out, data, c.gen.row(index))
	return Share{Index: index, Data: out}, nil
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
		dotSlices(buf, data, c.gen.row(c.k+i))
		shares[i] = Share{Index: c.k + i, Data: buf}
	}
	return shares, nil
}

// ErrInsufficientShares is returned by Reconstruct and Decode when fewer
// than K distinct shares are supplied.
var ErrInsufficientShares = errors.New("fec: insufficient shares to decode")

// stackMissing is the largest number of missing data shares a decode
// solves on stack scratch. The paper's groups are k = 16, so every decode
// the protocol makes fits; a larger system takes one heap scratch.
const stackMissing = 16

// basis is what a share is computed from when a group's shares are held
// in the indexed form Reconstruct and ShareFrom take: the K
// lowest-indexed shares held — every held data share, then as many
// repairs as data shares are missing — and, with m data shares missing,
// the inverse of the m×m block that relates them to those m repairs.
// Surplus shares are never read, so no result depends on the order
// shares arrived in.
type basis struct {
	src  [MaxShares]uint8 // the K indices read, ascending
	miss [MaxShares]uint8 // the m missing data indices, ascending
	m    int
	inv  matrix
}

// basisOf reads held into a basis and returns the shares' common length.
// The inversion runs on scratch when it holds 2·m·m bytes, else on one
// heap allocation; nothing is inverted when m = 0.
func (c *Codec) basisOf(held [][]byte, scratch []byte) (b basis, size int, err error) {
	k := c.k
	if len(held) > MaxShares {
		return b, 0, fmt.Errorf("fec: %d share slots, only %d indices exist", len(held), MaxShares)
	}
	n := 0
	for i := 0; i < len(held) && n < k; i++ {
		switch {
		case held[i] != nil:
			b.src[n] = uint8(i)
			n++
		case i < k:
			b.miss[b.m] = uint8(i)
			b.m++
		}
	}
	if n < k {
		return b, 0, fmt.Errorf("%w: have %d distinct, need %d", ErrInsufficientShares, n, k)
	}
	size = len(held[b.src[0]])
	for _, i := range b.src[1:k] {
		if len(held[i]) != size {
			return b, 0, fmt.Errorf("fec: share %d has length %d, want %d", i, len(held[i]), size)
		}
	}
	m := b.m
	if m == 0 {
		return b, size, nil
	}
	if 2*m*m > len(scratch) {
		scratch = make([]byte, 2*m*m)
	}
	a := matrix{rows: m, cols: m, data: scratch[:m*m]}
	b.inv = matrix{rows: m, cols: m, data: scratch[m*m : 2*m*m]}
	for j, r := range b.src[k-m : k] {
		row := c.gen.row(int(r))
		for t, lost := range b.miss[:m] {
			a.set(j, t, row[lost])
		}
	}
	if !a.invertInto(&b.inv) {
		// Cannot happen: any k distinct rows of the systematic
		// Vandermonde generator are linearly independent.
		return b, 0, fmt.Errorf("fec: singular decode system for %d missing shares", m)
	}
	return b, size, nil
}

// shareInto sets out to share index, summed over the basis' K shares in
// one dotSlices pass. Share index is q·D for q its generator row and D
// the data. With D_miss the m missing data shares and R the m repairs
// read, R = A·D_miss + B·D_held, so D_miss = A⁻¹·R + A⁻¹·B·D_held (in
// GF(2⁸) minus is plus). Repair j then weighs u_j = Σₜ q[missₜ]·A⁻¹[t][j]
// and held data share i weighs q[i] + Σⱼ u_j·G[rⱼ][i]. With nothing
// missing that is q itself, the encoder's sum; for a missing data share
// q is a unit row and u a row of A⁻¹, the decoder's.
func (c *Codec) shareInto(out []byte, held [][]byte, b *basis, index int) {
	k, m := c.k, b.m
	q := c.gen.row(index)
	var coef, u [MaxShares]byte
	copy(coef[:k], q)
	for t, lost := range b.miss[:m] {
		addMulSlice(u[:m], b.inv.row(t), q[lost])
	}
	rep := b.src[k-m : k]
	for j, r := range rep {
		addMulSlice(coef[:k], c.gen.row(int(r)), u[j])
	}
	// coef is indexed by data share; gather it into source order in
	// place (src is ascending with src[n] >= n, so every entry is read
	// before it is overwritten) and append the repairs' weights.
	var srcs [MaxShares][]byte
	for n, i := range b.src[:k-m] {
		coef[n] = coef[i]
		srcs[n] = held[i]
	}
	for j, r := range rep {
		coef[k-m+j] = u[j]
		srcs[k-m+j] = held[r]
	}
	dotSlices(out, srcs[:k], coef[:k])
}

// ShareFrom sets out to share index of a group — a data share or a
// repair, 0 <= index < MaxShares — computed from the K lowest-indexed
// shares in held, which is in Reconstruct's form: indexed by share
// index, nil where a share is not held. Any K shares determine every
// other (the code is MDS), so a member holding K shares serves any
// repair without decoding the data first. out must be exactly as long as
// the shares and overlap none of them; held is not changed, and nothing
// is allocated while at most 16 data shares are missing. With every data
// share held this is the encoder's sum; otherwise it inverts the same
// m×m block Reconstruct does. The bytes are those Repair or Reconstruct
// produce for the index.
func (c *Codec) ShareFrom(out []byte, held [][]byte, index int) error {
	if index < 0 || index >= MaxShares {
		return fmt.Errorf("fec: share index %d out of range", index)
	}
	var stack [2 * stackMissing * stackMissing]byte
	b, size, err := c.basisOf(held, stack[:])
	if err != nil {
		return err
	}
	if len(out) != size {
		return fmt.Errorf("fec: output has length %d, shares %d", len(out), size)
	}
	c.shareInto(out, held, &b, index)
	return nil
}

// Reconstruct fills in the missing data shares of a group in place. held
// is indexed by share index: held[i] is share i's payload, nil when it is
// not held (a zero-length share is a non-nil empty slice). On success
// held[0:K] are the original data shares: those that were present are
// left as they were (by reference, not copied — treat share buffers as
// immutable), the m missing ones are carved from buf when it holds m
// shares' bytes and from one new allocation otherwise, and repair entries
// are untouched. A slice shorter than K, or holding fewer than K shares,
// is ErrInsufficientShares; on any error held is unchanged.
//
// The shares decoded from are the K lowest-indexed ones held (see
// ShareFrom, which computes any one share from the same basis). The work
// follows the erasures, not the code dimension: with m data shares
// missing one m×m system is inverted for all of them, and nothing is
// when m = 0.
func (c *Codec) Reconstruct(held [][]byte, buf []byte) error {
	var stack [2 * stackMissing * stackMissing]byte
	b, size, err := c.basisOf(held, stack[:])
	if err != nil {
		return err
	}
	if len(buf) < b.m*size || buf == nil { // a decoded share is never nil
		buf = make([]byte, b.m*size)
	}
	for t, lost := range b.miss[:b.m] {
		out := buf[t*size : (t+1)*size : (t+1)*size]
		c.shareInto(out, held, &b, int(lost))
		held[lost] = out
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
	if err := c.Reconstruct(held, nil); err != nil {
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
