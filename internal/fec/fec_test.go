package fec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// --- GF(256) arithmetic ---

func TestGFMulCommutative(t *testing.T) {
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			if gfMul(byte(a), byte(b)) != gfMul(byte(b), byte(a)) {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
		}
	}
}

func TestGFMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

func TestGFMulAssociative(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		a, b, c := byte(r.IntN(256)), byte(r.IntN(256)), byte(r.IntN(256))
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
		}
	}
}

func TestGFDistributive(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 2000; i++ {
		a, b, c := byte(r.IntN(256)), byte(r.IntN(256)), byte(r.IntN(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("not distributive at %d,%d,%d", a, b, c)
		}
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
}

func TestGFDiv(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		a, b := byte(r.IntN(256)), byte(1+r.IntN(255))
		if gfMul(gfDiv(a, b), b) != a {
			t.Fatalf("(a/b)*b != a for a=%d b=%d", a, b)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv by zero did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfInv(0) did not panic")
		}
	}()
	gfInv(0)
}

func TestGFPow(t *testing.T) {
	if gfPow(0, 0) != 1 {
		t.Fatal("0^0 != 1")
	}
	if gfPow(0, 5) != 0 {
		t.Fatal("0^5 != 0")
	}
	for a := 1; a < 256; a += 3 {
		acc := byte(1)
		for n := 0; n < 10; n++ {
			if gfPow(byte(a), n) != acc {
				t.Fatalf("pow(%d, %d) mismatch", a, n)
			}
			acc = gfMul(acc, byte(a))
		}
	}
}

func TestGFExpLogRoundTrip(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := gfExp[i]
		if seen[v] {
			t.Fatalf("generator not primitive: repeat at exponent %d", i)
		}
		seen[v] = true
	}
}

func TestMulSliceAgainstScalar(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255}
	dst := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 37, 255} {
		mulSlice(dst, src, c)
		for i := range src {
			if dst[i] != gfMul(src[i], c) {
				t.Fatalf("mulSlice c=%d i=%d: %d != %d", c, i, dst[i], gfMul(src[i], c))
			}
		}
	}
}

func TestAddMulSliceAgainstScalar(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255}
	for _, c := range []byte{0, 1, 2, 37, 255} {
		dst := []byte{9, 9, 9, 9, 9, 9, 9}
		addMulSlice(dst, src, c)
		for i := range src {
			if dst[i] != 9^gfMul(src[i], c) {
				t.Fatalf("addMulSlice c=%d i=%d", c, i)
			}
		}
	}
}

// --- matrices ---

// invertCopy inverts m on a scratch copy, leaving m intact.
func invertCopy(m *matrix) (*matrix, bool) {
	a := &matrix{rows: m.rows, cols: m.cols, data: bytes.Clone(m.data)}
	inv := newMatrix(m.rows, m.cols)
	return inv, a.invertInto(inv)
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := newMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.set(i, i, 1)
	}
	inv, ok := invertCopy(id)
	if !ok {
		t.Fatal("identity reported singular")
	}
	if !bytes.Equal(inv.data, id.data) {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	inverted := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.IntN(8)
		m := newMatrix(n, n)
		for i := range m.data {
			m.data[i] = byte(r.IntN(256))
		}
		if trial%4 == 0 {
			m.set(0, 0, 0) // force the zero-pivot path
		}
		inv, ok := invertCopy(m)
		if !ok {
			continue // singular random matrix; skip
		}
		inverted++
		left, right := inv.mul(m), m.mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if left.at(i, j) != want || right.at(i, j) != want {
					t.Fatalf("m * m^-1 != I for n=%d", n)
				}
			}
		}
	}
	if inverted < 20 {
		t.Fatalf("only %d of 40 random matrices inverted", inverted)
	}
}

func TestMatrixSingularDetected(t *testing.T) {
	m := newMatrix(2, 2)
	m.set(0, 0, 3)
	m.set(0, 1, 5)
	m.set(1, 0, 3)
	m.set(1, 1, 5)
	if _, ok := invertCopy(m); ok {
		t.Fatal("singular matrix inverted without error")
	}
	if _, ok := invertCopy(newMatrix(3, 3)); ok {
		t.Fatal("zero matrix inverted without error")
	}
}

func TestVandermondeAnyKRowsInvertible(t *testing.T) {
	const k = 5
	v := vandermonde(40, k)
	r := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 50; trial++ {
		rows := r.Perm(40)[:k]
		sub := newMatrix(k, k)
		for i, row := range rows {
			copy(sub.row(i), v.row(row))
		}
		if !sub.invertInto(newMatrix(k, k)) {
			t.Fatalf("vandermonde rows %v singular", rows)
		}
	}
}

// --- codec ---

func mkData(r *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		for j := range data[i] {
			data[i][j] = byte(r.IntN(256))
		}
	}
	return data
}

func TestCodecSystematic(t *testing.T) {
	c, err := NewCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	data := mkData(rand.New(rand.NewPCG(1, 1)), 4, 64)
	shares := make([]Share, 4)
	for i := range shares {
		shares[i] = Share{Index: i, Data: data[i]}
	}
	dec, err := c.Decode(shares)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(dec[i], data[i]) {
			t.Fatalf("systematic decode altered share %d", i)
		}
	}
}

func TestCodecAllErasurePatterns(t *testing.T) {
	const k, h = 4, 4
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	data := mkData(rand.New(rand.NewPCG(2, 2)), k, 32)
	repairs, err := c.Repairs(data, h)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Share, 0, k+h)
	for i := 0; i < k; i++ {
		all = append(all, Share{Index: i, Data: data[i]})
	}
	all = append(all, repairs...)

	// Every subset of exactly k of the k+h shares must decode.
	n := k + h
	for mask := 0; mask < 1<<n; mask++ {
		if popcount(mask) != k {
			continue
		}
		var sub []Share
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, all[i])
			}
		}
		dec, err := c.Decode(sub)
		if err != nil {
			t.Fatalf("mask %b failed: %v", mask, err)
		}
		for i := range data {
			if !bytes.Equal(dec[i], data[i]) {
				t.Fatalf("mask %b wrong data at %d", mask, i)
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestCodecInsufficientShares(t *testing.T) {
	c, _ := NewCodec(4)
	data := mkData(rand.New(rand.NewPCG(3, 3)), 4, 16)
	_, err := c.Decode([]Share{{Index: 0, Data: data[0]}, {Index: 2, Data: data[2]}})
	if !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("want ErrInsufficientShares, got %v", err)
	}
}

func TestCodecDuplicateIndicesNotCounted(t *testing.T) {
	c, _ := NewCodec(3)
	data := mkData(rand.New(rand.NewPCG(4, 4)), 3, 16)
	shares := []Share{
		{Index: 0, Data: data[0]},
		{Index: 0, Data: data[0]},
		{Index: 1, Data: data[1]},
	}
	if _, err := c.Decode(shares); !errors.Is(err, ErrInsufficientShares) {
		t.Fatalf("duplicates satisfied decode: %v", err)
	}
}

func TestCodecMismatchedShareLength(t *testing.T) {
	c, _ := NewCodec(2)
	_, err := c.Decode([]Share{
		{Index: 0, Data: make([]byte, 8)},
		{Index: 1, Data: make([]byte, 9)},
	})
	if err == nil {
		t.Fatal("mismatched share lengths accepted")
	}
}

func TestCodecRepairIndexValidation(t *testing.T) {
	c, _ := NewCodec(4)
	data := mkData(rand.New(rand.NewPCG(5, 5)), 4, 8)
	if _, err := c.Repair(data, 3); err == nil {
		t.Fatal("repair index < k accepted")
	}
	if _, err := c.Repair(data, MaxShares); err == nil {
		t.Fatal("repair index >= MaxShares accepted")
	}
}

func TestCodecBadK(t *testing.T) {
	if _, err := NewCodec(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewCodec(256); err == nil {
		t.Fatal("k=256 accepted")
	}
}

func TestCodecWrongDataCount(t *testing.T) {
	c, _ := NewCodec(4)
	if _, err := c.Repair(mkData(rand.New(rand.NewPCG(6, 6)), 3, 8), 4); err == nil {
		t.Fatal("wrong data share count accepted")
	}
}

func TestCodecK1(t *testing.T) {
	c, err := NewCodec(1)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2, 3}}
	rep, err := c.Repair(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode([]Share{rep})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[0], data[0]) {
		t.Fatal("k=1 repair did not reconstruct")
	}
}

func TestCodecPaperGroupSize(t *testing.T) {
	// The paper sends groups of 16 packets; verify a realistic loss
	// pattern: 5 of 16 data packets lost, 5 repairs received.
	const k = 16
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	data := mkData(rand.New(rand.NewPCG(7, 7)), k, 1000)
	repairs, err := c.Repairs(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Share
	for i := 0; i < k; i++ {
		if i%3 == 0 && len(got) < k-5 { // drop 5 data shares
			got = append(got, Share{Index: i, Data: data[i]})
		} else if i%3 != 0 {
			got = append(got, Share{Index: i, Data: data[i]})
		}
	}
	got = got[:k-5]
	got = append(got, repairs...)
	dec, err := c.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(dec[i], data[i]) {
			t.Fatalf("group-of-16 decode wrong at %d", i)
		}
	}
}

// Property: for random k, h, loss patterns, decode recovers the data as
// long as at least k distinct shares survive.
func TestPropertyCodecRecovers(t *testing.T) {
	f := func(seed uint64, kRaw, hRaw, sizeRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		k := int(kRaw%12) + 1
		h := int(hRaw % 12)
		if k+h > MaxShares {
			h = MaxShares - k
		}
		size := int(sizeRaw%128) + 1
		c, err := NewCodec(k)
		if err != nil {
			return false
		}
		data := mkData(r, k, size)
		repairs, err := c.Repairs(data, h)
		if err != nil {
			return false
		}
		all := make([]Share, 0, k+h)
		for i := 0; i < k; i++ {
			all = append(all, Share{Index: i, Data: data[i]})
		}
		all = append(all, repairs...)
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		if len(all) < k {
			return true
		}
		surviving := all[:k+r.IntN(len(all)-k+1)]
		dec, err := c.Decode(surviving)
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(dec[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecKAccessor(t *testing.T) {
	c, _ := NewCodec(9)
	if c.K() != 9 {
		t.Fatalf("K() = %d", c.K())
	}
}

func TestCodecRepairsCountValidation(t *testing.T) {
	c, _ := NewCodec(250)
	data := mkData(rand.New(rand.NewPCG(8, 8)), 250, 4)
	if _, err := c.Repairs(data, 6); err == nil {
		t.Fatal("k+h > MaxShares accepted")
	}
	if _, err := c.Repairs(data, -1); err == nil {
		t.Fatal("negative h accepted")
	}
}
