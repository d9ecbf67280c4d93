package fec

// The amd64 dotSlices is the split-nibble technique: a product c·b is
// c·(b&15) ^ c·(b>>4<<4), and each half is one lookup in a 16-entry
// table, which VPSHUFB does for 32 bytes at once. See dot_amd64.s.

// nibbleTables[c] holds coefficient c's two 16-entry product tables:
// bytes 0–15 are c·x and bytes 16–31 are c·(x<<4), for x < 16. 8 KiB.
var nibbleTables = buildNibbleTables()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
var hasAVX2 = cpuHasAVX2()

func buildNibbleTables() (t [fieldSize][32]byte) {
	for c := range t {
		for x := range 16 {
			t[c][x] = gfMulTable[c][x]
			t[c][16+x] = gfMulTable[c][x<<4]
		}
	}
	return t
}

// cpuHasAVX2 checks CPUID and XCR0 for AVX2 support.
func cpuHasAVX2() bool

// dotAVX2 is dotSlices for len(out) >= 32 and at least one source, on a
// CPU with AVX2. It reads len(out) bytes of every source and one
// coefficient per source without checking either; dotSlices does.
//
//go:noescape
func dotAVX2(out []byte, srcs [][]byte, coef []byte)

// dotSlices sets out[i] = Σⱼ coef[j]·srcs[j][i] for every i < len(out).
// Each source must be at least len(out) long, coef must have an entry per
// source, and out must not overlap a source. Every output byte is written
// once, after all sources are summed, so out need not be zeroed.
func dotSlices(out []byte, srcs [][]byte, coef []byte) {
	if !hasAVX2 || len(out) < 32 || len(srcs) == 0 {
		dotSlicesGeneric(out, srcs, coef)
		return
	}
	if len(coef) < len(srcs) {
		panic("fec: dotSlices has fewer coefficients than sources")
	}
	for _, s := range srcs {
		if len(s) < len(out) {
			panic("fec: dotSlices source shorter than out")
		}
	}
	dotAVX2(out, srcs, coef)
}
