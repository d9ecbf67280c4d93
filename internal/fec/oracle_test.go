package fec

// decodeRef is the reference model the decoder is checked against: the
// decode written the obvious way — select K shares from a list, invert
// the full K×K matrix of their generator rows, multiply. It shares the
// field kernels and the generator with the codec but none of the erasure
// bookkeeping, so a slip in Reconstruct's index tables, its m×m
// sub-system or the coefficient fold shows as a disagreement.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func decodeRef(c *Codec, shares []Share) ([][]byte, error) {
	first := map[int][]byte{}
	for _, s := range shares {
		if s.Index < 0 || s.Index >= MaxShares {
			return nil, fmt.Errorf("ref: share index %d out of range", s.Index)
		}
		if _, dup := first[s.Index]; !dup {
			first[s.Index] = s.Data
		}
	}
	if len(first) < c.k {
		return nil, ErrInsufficientShares
	}
	// Data shares first, then the lowest repair indices.
	var sel []int
	for idx := 0; idx < MaxShares && len(sel) < c.k; idx++ {
		if _, ok := first[idx]; ok {
			sel = append(sel, idx)
		}
	}
	size := len(first[sel[0]])
	sub := newMatrix(c.k, c.k)
	for i, idx := range sel {
		if len(first[idx]) != size {
			return nil, fmt.Errorf("ref: share %d has length %d, want %d", idx, len(first[idx]), size)
		}
		copy(sub.row(i), c.gen.row(idx))
	}
	dec := newMatrix(c.k, c.k)
	if !sub.invertInto(dec) {
		return nil, errors.New("ref: singular selection")
	}
	out := make([][]byte, c.k)
	for i := range out {
		if d, ok := first[i]; ok {
			out[i] = d
			continue
		}
		out[i] = make([]byte, size)
		for j, coeff := range dec.row(i) {
			addMulSlice(out[i], first[sel[j]], coeff)
		}
	}
	return out, nil
}

// erasureCase is one decode input: which shares of a group are held.
type erasureCase struct {
	c    *Codec
	data [][]byte // the K originals
	held [][]byte // dense, nil = not held; repairs genuine
}

// newErasureCase drops m random data shares and holds m+surplus repairs
// at random indices, the last of them always MaxShares-1 when any is
// held, in a slice with `slack` empty slots past the highest index.
func newErasureCase(t testing.TB, r *rand.Rand, k, size, m, surplus, slack int) erasureCase {
	t.Helper()
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	ec := erasureCase{c: c, data: mkData(r, k, size)}
	reps := r.Perm(MaxShares - k)
	for i, off := range reps {
		if off == MaxShares-1-k {
			reps[0], reps[i] = reps[i], reps[0]
		}
	}
	reps = reps[:m+surplus]
	top := k - 1
	for i, off := range reps {
		reps[i] = k + off
		top = max(top, reps[i])
	}
	ec.held = make([][]byte, min(top+1+slack, MaxShares))
	copy(ec.held, ec.data)
	for _, lost := range r.Perm(k)[:m] {
		ec.held[lost] = nil
	}
	for _, idx := range reps {
		rep, err := c.Repair(ec.data, idx)
		if err != nil {
			t.Fatal(err)
		}
		ec.held[idx] = rep.Data
	}
	return ec
}

// list returns the held shares as a shuffled Share list, followed by a
// corrupt duplicate of every one of them (first occurrence must win).
func (ec erasureCase) list(r *rand.Rand) []Share {
	var shares []Share
	for idx, d := range ec.held {
		if d != nil {
			shares = append(shares, Share{Index: idx, Data: d})
		}
	}
	r.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
	for _, s := range shares[:len(shares):len(shares)] {
		shares = append(shares, Share{Index: s.Index, Data: make([]byte, len(s.Data)+3)})
	}
	return shares
}

// indices returns the held indices, ascending: a decode reads the first K.
func (ec erasureCase) indices() []int {
	var idx []int
	for i, d := range ec.held {
		if d != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// with returns a copy of ec whose slot idx holds d.
func (ec erasureCase) with(idx int, d []byte) erasureCase {
	ec.held = append([][]byte(nil), ec.held...)
	ec.held[idx] = d
	return ec
}

// checkAgree runs all three decoders on ec and requires the original
// data from each; Reconstruct must also leave what was held alone.
// ShareFrom must give a random data share and a random repair, byte for
// byte, from the same held shares.
func checkAgree(t testing.TB, r *rand.Rand, ec erasureCase, label string) {
	t.Helper()
	k := ec.c.k
	shares := ec.list(r)
	ref, err := decodeRef(ec.c, shares)
	if err != nil {
		t.Fatalf("%s: decodeRef: %v", label, err)
	}
	dec, err := ec.c.Decode(shares)
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
	}
	got := append([][]byte(nil), ec.held...)
	if err := ec.c.Reconstruct(got, nil); err != nil {
		t.Fatalf("%s: Reconstruct: %v", label, err)
	}
	out := make([]byte, len(ec.data[0]))
	i := r.IntN(k)
	if err := ec.c.ShareFrom(out, ec.held, i); err != nil || !bytes.Equal(out, ec.data[i]) {
		t.Fatalf("%s: ShareFrom wrong at data share %d (%v)", label, i, err)
	}
	if k < MaxShares {
		idx := k + r.IntN(MaxShares-k)
		want, _ := ec.c.Repair(ec.data, idx)
		if err := ec.c.ShareFrom(out, ec.held, idx); err != nil || !bytes.Equal(out, want.Data) {
			t.Fatalf("%s: ShareFrom wrong at repair %d (%v)", label, idx, err)
		}
	}
	if len(dec) != k || len(ref) != k {
		t.Fatalf("%s: Decode returned %d shares, decodeRef %d, want %d", label, len(dec), len(ref), k)
	}
	for i := 0; i < k; i++ {
		if got[i] == nil || !bytes.Equal(got[i], ec.data[i]) {
			t.Fatalf("%s: Reconstruct wrong at data share %d", label, i)
		}
		if dec[i] == nil || !bytes.Equal(dec[i], ec.data[i]) {
			t.Fatalf("%s: Decode wrong at data share %d", label, i)
		}
		if !bytes.Equal(ref[i], ec.data[i]) {
			t.Fatalf("%s: decodeRef wrong at data share %d", label, i)
		}
	}
	for i, d := range ec.held {
		if d == nil {
			if i >= k && got[i] != nil {
				t.Fatalf("%s: Reconstruct wrote repair slot %d", label, i)
			}
			continue
		}
		if len(got[i]) != len(d) || (len(d) > 0 && &got[i][0] != &d[0]) {
			t.Fatalf("%s: Reconstruct replaced held share %d instead of keeping it by reference", label, i)
		}
	}
}

// checkAllFail requires every decoder to reject ec, with
// ErrInsufficientShares exactly when wantInsufficient.
func checkAllFail(t testing.TB, r *rand.Rand, ec erasureCase, wantInsufficient bool, label string) {
	t.Helper()
	shares := ec.list(r)
	before := append([][]byte(nil), ec.held...)
	_, errRef := decodeRef(ec.c, shares)
	_, errDec := ec.c.Decode(shares)
	errShare := ec.c.ShareFrom(make([]byte, len(ec.data[0])), ec.held, 0)
	errRec := ec.c.Reconstruct(ec.held, nil)
	for name, err := range map[string]error{"decodeRef": errRef, "Decode": errDec, "Reconstruct": errRec, "ShareFrom": errShare} {
		if err == nil || errors.Is(err, ErrInsufficientShares) != wantInsufficient {
			t.Fatalf("%s: %s returned %v (want insufficient = %v)", label, name, err, wantInsufficient)
		}
	}
	for i := range before {
		if (before[i] == nil) != (ec.held[i] == nil) {
			t.Fatalf("%s: failed Reconstruct changed slot %d", label, i)
		}
	}
}

// TestReconstructMatchesFullInversionOracle sweeps group sizes, payload
// sizes and every erasure count the field allows, all data lost
// included, with repair indices up to MaxShares-1, surplus shares and
// shuffled, duplicated lists.
func TestReconstructMatchesFullInversionOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1998, 21))
	for _, k := range []int{1, 2, 8, 16, 32, 200} {
		for _, size := range []int{0, 1, 7, 1000} {
			for m := 0; m <= min(k, MaxShares-k); m++ {
				label := fmt.Sprintf("k=%d size=%d m=%d", k, size, m)
				surplus := r.IntN(min(3, MaxShares-k-m+1))
				ec := newErasureCase(t, r, k, size, m, surplus, r.IntN(3))
				checkAgree(t, r, ec, label)

				wrong := make([]byte, size+1)
				if surplus > 0 {
					// A bad length in a share no decode reads is not an
					// error: the highest surplus repair is never used.
					checkAgree(t, r, ec.with(MaxShares-1, wrong), label+" bad-surplus")
				}
				if k > 1 {
					// One among the shares read is, whichever it hits.
					checkAllFail(t, r, ec.with(ec.indices()[r.IntN(k)], wrong), false, label+" bad-length")
				}
				// One share short of K, whichever is dropped.
				short := ec
				for _, idx := range ec.indices()[k:] {
					short = short.with(idx, nil)
				}
				checkAllFail(t, r, short.with(ec.indices()[r.IntN(k)], nil), true, label+" short")
			}
		}
	}
}

// TestReconstructSlotBounds covers the two ends of the held slice: one
// too short to hold K data shares is insufficient, one longer than the
// index space is refused.
func TestReconstructSlotBounds(t *testing.T) {
	c, _ := NewCodec(4)
	data := mkData(rand.New(rand.NewPCG(3, 9)), 4, 8)
	if err := c.Reconstruct(data[:3], nil); !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("3 slots for k=4: %v", err)
	}
	if err := c.Reconstruct(nil, nil); !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("no slots: %v", err)
	}
	long := make([][]byte, MaxShares+1)
	copy(long, data)
	if err := c.Reconstruct(long, nil); err == nil || errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("%d slots accepted: %v", len(long), err)
	}
	if err := c.Reconstruct(long[:MaxShares], nil); err != nil {
		t.Fatalf("full-width slice with all data held: %v", err)
	}
}

// FuzzReconstruct builds a group from the corpus bytes — k, the payload
// size, the set of share indices held and the subset of those given a
// wrong length — and requires Reconstruct and Decode to agree with the
// oracle on every outcome, to return the original data whenever the
// oracle does, and never to panic.
func FuzzReconstruct(f *testing.F) {
	f.Add(uint8(15), uint8(32), []byte{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 40}, []byte{})
	f.Add(uint8(15), uint8(9), []byte{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 254}, []byte{})
	f.Add(uint8(3), uint8(5), []byte{0, 1, 2, 3, 4, 5}, []byte{5})
	f.Add(uint8(3), uint8(0), []byte{0, 2, 4, 9}, []byte{2})
	f.Add(uint8(199), uint8(3), []byte{255, 7}, []byte{})
	f.Add(uint8(0), uint8(1), []byte{200}, []byte{})
	f.Fuzz(func(t *testing.T, kRaw, size uint8, hold, bad []byte) {
		k := 1 + int(kRaw)%MaxShares
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		data := mkData(rand.New(rand.NewPCG(uint64(k), uint64(size))), k, int(size))
		held := make([][]byte, MaxShares)
		for _, b := range hold {
			idx := int(b) % MaxShares
			if idx < k {
				held[idx] = data[idx]
			} else if rep, err := c.Repair(data, idx); err != nil {
				t.Fatal(err)
			} else {
				held[idx] = rep.Data
			}
		}
		clean := true
		for _, b := range bad {
			if idx := int(b) % MaxShares; held[idx] != nil {
				held[idx] = make([]byte, int(size)+1)
				clean = false
			}
		}
		var shares []Share
		for idx, d := range held {
			if d != nil {
				shares = append(shares, Share{Index: idx, Data: d})
			}
		}
		ref, errRef := decodeRef(c, shares)
		dec, errDec := c.Decode(shares)
		errRec := c.Reconstruct(held, nil)
		if (errRef == nil) != (errDec == nil) || (errRef == nil) != (errRec == nil) ||
			errors.Is(errRef, ErrInsufficientShares) != errors.Is(errDec, ErrInsufficientShares) ||
			errors.Is(errRef, ErrInsufficientShares) != errors.Is(errRec, ErrInsufficientShares) {
			t.Fatalf("outcomes differ: decodeRef %v, Decode %v, Reconstruct %v", errRef, errDec, errRec)
		}
		if clean && (errRef == nil) != (len(shares) >= k) {
			t.Fatalf("%d clean shares for k=%d: %v", len(shares), k, errRef)
		}
		if errRef != nil {
			return
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(dec[i], ref[i]) || !bytes.Equal(held[i], ref[i]) {
				t.Fatalf("share %d: Decode or Reconstruct differs from the oracle", i)
			}
			if clean && !bytes.Equal(ref[i], data[i]) {
				t.Fatalf("share %d: clean decode differs from the source", i)
			}
		}
	})
}

// FuzzShareFrom builds a group from the corpus bytes — k, the payload
// size and the set of share indices held — and asks for one share of it.
// Whenever the k×k oracle decodes the held shares, ShareFrom must return
// the encoder's share (the datum itself below k, Repair above), and the
// same bytes the encoder gives from the oracle's decode; whenever the
// oracle refuses, ShareFrom must refuse for the same reason.
func FuzzShareFrom(f *testing.F) {
	f.Add(uint8(15), uint8(32), []byte{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 40}, uint8(41))
	f.Add(uint8(15), uint8(40), []byte{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 254}, uint8(3))
	f.Add(uint8(3), uint8(5), []byte{0, 9, 4, 7, 5}, uint8(2))
	f.Add(uint8(3), uint8(0), []byte{0, 2, 4, 9}, uint8(1))
	f.Add(uint8(199), uint8(3), []byte{255, 7}, uint8(200))
	f.Add(uint8(0), uint8(1), []byte{200}, uint8(0))
	f.Fuzz(func(t *testing.T, kRaw, size uint8, hold []byte, indexRaw uint8) {
		k := 1 + int(kRaw)%MaxShares
		index := int(indexRaw) % MaxShares
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		data := mkData(rand.New(rand.NewPCG(uint64(k), uint64(size))), k, int(size))
		held := make([][]byte, MaxShares)
		var shares []Share
		for _, b := range hold {
			idx := int(b) % MaxShares
			if held[idx] != nil {
				continue
			}
			held[idx] = data[idx%k]
			if idx >= k {
				rep, err := c.Repair(data, idx)
				if err != nil {
					t.Fatal(err)
				}
				held[idx] = rep.Data
			}
			shares = append(shares, Share{Index: idx, Data: held[idx]})
		}
		before := slices.Clone(held)
		out := make([]byte, int(size))
		err = c.ShareFrom(out, held, index)
		for i, d := range before {
			if (d == nil) != (held[i] == nil) || len(d) > 0 && &d[0] != &held[i][0] {
				t.Fatalf("ShareFrom changed held slot %d", i)
			}
		}
		ref, errRef := decodeRef(c, shares)
		if (err == nil) != (errRef == nil) || errors.Is(err, ErrInsufficientShares) != errors.Is(errRef, ErrInsufficientShares) {
			t.Fatalf("ShareFrom %v, decodeRef %v", err, errRef)
		}
		if err != nil {
			return
		}
		var want, fromRef []byte
		if index < k {
			want, fromRef = data[index], ref[index]
		} else {
			rep, _ := c.Repair(data, index)
			refRep, _ := c.Repair(ref, index)
			want, fromRef = rep.Data, refRep.Data
		}
		if !bytes.Equal(out, want) || !bytes.Equal(out, fromRef) {
			t.Fatalf("share %d of k=%d from %d held: ShareFrom differs from the encoder or the oracle", index, k, len(shares))
		}
	})
}

// TestCodecAllocations pins what the codec allocates: nothing for
// ShareFrom at any erasure count of the paper's k = 16, whichever share
// it computes, nor for Reconstruct given room for the missing shares;
// without that room Reconstruct allocates the output slab alone, the list
// form the dense slice on top of that, and Repairs the slab plus the
// Share slice.
func TestCodecAllocations(t *testing.T) {
	const k = 16
	r := rand.New(rand.NewPCG(16, 983))
	buf := make([]byte, k*983)
	out := make([]byte, 983)
	for m := 0; m <= k; m++ {
		ec := newErasureCase(t, r, k, 983, m, 1, 0)
		shares := ec.list(r)[:k+1]
		held := make([][]byte, len(ec.held))
		want := float64(min(m, 1))
		for _, into := range [][]byte{nil, buf} {
			wantHere := want
			if into != nil {
				wantHere = 0
			}
			if got := testing.AllocsPerRun(50, func() {
				copy(held, ec.held)
				if err := ec.c.Reconstruct(held, into); err != nil {
					t.Fatal(err)
				}
			}); got != wantHere {
				t.Errorf("Reconstruct with %d missing, buffer of %d bytes: %v allocations, want %v", m, len(into), got, wantHere)
			}
		}
		for _, idx := range []int{0, k - 1, k, MaxShares - 1} {
			if got := testing.AllocsPerRun(50, func() {
				if err := ec.c.ShareFrom(out, ec.held, idx); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("ShareFrom of share %d with %d missing: %v allocations, want 0", idx, m, got)
			}
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := ec.c.Decode(shares); err != nil {
				t.Fatal(err)
			}
		}); got != want+1 {
			t.Errorf("Decode with %d missing: %v allocations, want %v", m, got, want+1)
		}
	}
	ec := newErasureCase(t, r, k, 983, 0, 0, 0)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := ec.c.Repairs(ec.data, 4); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Repairs: %v allocations, want 2", got)
	}
}
