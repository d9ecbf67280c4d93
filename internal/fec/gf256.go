// Package fec implements the forward-error-correction substrate SHARQFEC
// layers repairs on: a systematic Reed–Solomon erasure code over GF(2^8)
// in the style of Rizzo's "Effective Erasure Codes for Reliable Computer
// Communication Protocols" (CCR 1997), the paper's reference [14].
//
// A codec for k data packets can produce up to 255-k distinct repair
// packets; any k distinct packets of the combined set reconstruct the
// original k. SHARQFEC exploits the "any k of n" property so that repairs
// injected independently by different zones never duplicate information as
// long as their indices differ.
//
// A group's shares have one shape from the receiver's store to the
// decoder: a slice indexed by share index, nil where a share is not held,
// which Codec.Reconstruct completes in place (Decode adapts an
// (index, payload) list to it). A Codec is immutable: the generator is
// built once per k and the decode system is derived from the erasures of
// each call, sized by how many data shares are missing rather than by k,
// so there is no decode state to cache, lock or bound.
//
// The payload-sized work — each repair share, each reconstructed data
// share — is one dot product over the group's shares, dotSlices, which
// writes every output byte once. On amd64 it is an AVX2 split-nibble
// kernel (dot_amd64.s); on other architectures or on a CPU without AVX2
// it is a walk of the product table. Both are byte-identical to the
// scalar reference kernels in gf256_ref.go.
package fec

import "encoding/binary"

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D), the field used by Rizzo's code and by RFC 5510.

const (
	fieldSize = 256
	primPoly  = 0x11D
)

var (
	gfExp, gfLog = expLogTables()
	// gfMulTable[c] is the full product row c·x for every x, the
	// table-driven kernel Rizzo's paper identifies as the dominant-cost
	// optimization: the inner loops index one 256-byte row (L1-resident)
	// instead of doing two log lookups, an add, and an exp lookup with
	// two zero branches per byte. 64 KiB total, built once at start-up.
	// The tables are variable initializers rather than an init function
	// so that tables derived from them in other files (the amd64 nibble
	// tables) are built after them whatever the file order.
	gfMulTable = mulTable()
)

// expLogTables returns the generator powers, doubled to skip a mod, and
// their logarithms.
func expLogTables() (exp [2 * fieldSize]byte, log [fieldSize]int) {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		exp[i] = byte(x)
		log[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= primPoly
		}
	}
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		exp[i] = exp[i-(fieldSize-1)]
	}
	log[0] = -1 // log of zero is undefined; flagged for debugging
	return exp, log
}

// mulTable returns every product row c·x.
func mulTable() (t [fieldSize][fieldSize]byte) {
	for a := 1; a < fieldSize; a++ {
		la := gfLog[a]
		for b := 1; b < fieldSize; b++ {
			t[a][b] = gfExp[la+gfLog[b]]
		}
	}
	return t
}

// gfMul returns a*b in GF(2^8).
func gfMul(a, b byte) byte {
	return gfMulTable[a][b]
}

// gfDiv returns a/b in GF(2^8). b must be nonzero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("fec: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+(fieldSize-1)]
}

// gfInv returns the multiplicative inverse of a. a must be nonzero.
func gfInv(a byte) byte {
	if a == 0 {
		panic("fec: inverse of zero in GF(256)")
	}
	return gfExp[(fieldSize-1)-gfLog[a]]
}

// gfPow returns a^n in GF(2^8). The exponent is reduced mod 255 (the
// multiplicative group order) before entering the log domain, so large n
// cannot overflow the gfLog[a]*n product.
func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	e := n % (fieldSize - 1)
	if e < 0 {
		e += fieldSize - 1
	}
	l := (gfLog[a] * e) % (fieldSize - 1)
	return gfExp[l]
}

// mulSlice sets dst[i] = c*src[i] for all i. len(dst) must equal len(src).
func mulSlice(dst, src []byte, c byte) {
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := &gfMulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = mt[s[0]]
		d[1] = mt[s[1]]
		d[2] = mt[s[2]]
		d[3] = mt[s[3]]
		d[4] = mt[s[4]]
		d[5] = mt[s[5]]
		d[6] = mt[s[6]]
		d[7] = mt[s[7]]
	}
	for i := n; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

// addMulSlice sets dst[i] ^= c*src[i] for all i. It is the row operation
// of the small matrix work (generator product, decode-system inversion,
// coefficient folding) and the portable body of dotSlicesGeneric; the
// payload-sized work goes through dotSlices. c==1 (the XOR-only case)
// takes an 8-byte-word path.
func addMulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(dst, src)
		return
	}
	mt := &gfMulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= mt[s[0]]
		d[1] ^= mt[s[1]]
		d[2] ^= mt[s[2]]
		d[3] ^= mt[s[3]]
		d[4] ^= mt[s[4]]
		d[5] ^= mt[s[5]]
		d[6] ^= mt[s[6]]
		d[7] ^= mt[s[7]]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// xorSlice sets dst[i] ^= src[i], eight bytes per iteration.
func xorSlice(dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// dotSlicesGeneric is the portable dotSlices: out is cleared, then each
// source is accumulated in turn with addMulSlice. Only the first len(out)
// bytes of each source are read; a shorter source panics.
func dotSlicesGeneric(out []byte, srcs [][]byte, coef []byte) {
	clear(out)
	for j, s := range srcs {
		addMulSlice(out, s[:len(out)], coef[j])
	}
}
