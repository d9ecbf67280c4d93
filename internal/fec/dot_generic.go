//go:build !amd64

package fec

// dotSlices sets out[i] = Σⱼ coef[j]·srcs[j][i] for every i < len(out).
// Each source must be at least len(out) long and coef must have an entry
// per source. This build has no vector kernel, so it is the table walk.
func dotSlices(out []byte, srcs [][]byte, coef []byte) {
	dotSlicesGeneric(out, srcs, coef)
}
