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
package fec

import "encoding/binary"

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D), the field used by Rizzo's code and by RFC 5510.

const (
	fieldSize = 256
	primPoly  = 0x11D
)

var (
	gfExp [2 * fieldSize]byte // generator powers, doubled to skip a mod
	gfLog [fieldSize]int
	// gfMulTable[c] is the full product row c·x for every x, the
	// table-driven kernel Rizzo's paper identifies as the dominant-cost
	// optimization: the inner loops index one 256-byte row (L1-resident)
	// instead of doing two log lookups, an add, and an exp lookup with
	// two zero branches per byte. 64 KiB total, built once at init.
	gfMulTable [fieldSize][fieldSize]byte
)

func init() {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= primPoly
		}
	}
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		gfExp[i] = gfExp[i-(fieldSize-1)]
	}
	gfLog[0] = -1 // log of zero is undefined; flagged for debugging

	for a := 1; a < fieldSize; a++ {
		la := gfLog[a]
		for b := 1; b < fieldSize; b++ {
			gfMulTable[a][b] = gfExp[la+gfLog[b]]
		}
	}
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

// addMulSlice sets dst[i] ^= c*src[i] for all i — the inner loop of both
// encoding and decoding. c==1 (the XOR-only case: systematic rows and
// parity-like coefficients) takes an 8-byte-word path.
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
