package fec

import "fmt"

// matrix is a dense row-major matrix over GF(2^8).
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m *matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }

// vandermonde returns the n×k matrix with entry (i, j) = x_i^j where the
// evaluation points x_i = i are distinct, so every k×k submatrix built
// from distinct rows is invertible (standard Vandermonde property after
// the systematic transform in NewCodec).
func vandermonde(n, k int) *matrix {
	m := newMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			m.set(i, j, gfPow(byte(i), j))
		}
	}
	return m
}

// mul returns m × o.
func (m *matrix) mul(o *matrix) *matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("fec: matrix size mismatch %dx%d × %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := newMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.row(i)
		orow := out.row(i)
		for l, c := range mrow {
			if c != 0 {
				addMulSlice(orow, o.row(l), c)
			}
		}
	}
	return out
}

// invertInto overwrites inv with m⁻¹ by Gauss–Jordan elimination and
// reports whether m was invertible. Both are n×n on storage the caller
// owns and nothing is allocated, so a decode can run it on stack scratch;
// m is consumed (reduced to the identity on success).
func (m *matrix) invertInto(inv *matrix) bool {
	n := m.rows
	if m.cols != n || inv.rows != n || inv.cols != n {
		panic("fec: invertInto wants two square matrices of one size")
	}
	clear(inv.data)
	for i := 0; i < n; i++ {
		inv.set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		if m.at(col, col) == 0 {
			// Adding a lower row that has this column set makes the pivot
			// nonzero — an elementary operation like a swap, without
			// needing one.
			r := col + 1
			for r < n && m.at(r, col) == 0 {
				r++
			}
			if r == n {
				return false
			}
			xorSlice(m.row(col), m.row(r))
			xorSlice(inv.row(col), inv.row(r))
		}
		// Scale the pivot row to make the pivot 1.
		if p := m.at(col, col); p != 1 {
			ip := gfInv(p)
			mulSlice(m.row(col), m.row(col), ip)
			mulSlice(inv.row(col), inv.row(col), ip)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := m.at(r, col); c != 0 {
				addMulSlice(m.row(r), m.row(col), c)
				addMulSlice(inv.row(r), inv.row(col), c)
			}
		}
	}
	return true
}
