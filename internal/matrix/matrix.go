// Package matrix implements dense linear algebra over GF(2^m).
//
// It provides exactly the operations the paper's constructions need:
// Vandermonde parity-check matrices (Appendix D), null spaces (to derive a
// generator G with G·Hᵀ = 0), Gauss-Jordan inversion (to systematize
// G_LRC via A = G⁻¹ restricted to the data columns, and to run the heavy
// decoder's linear-system solve), rank (for minimum-distance enumeration),
// and submatrix/column plumbing.
package matrix

import (
	"fmt"
	"strings"

	"repro/internal/gf"
)

// Matrix is a dense rows×cols matrix of GF(2^m) elements tied to a Field.
// The zero Matrix is not usable; construct with New or a builder.
type Matrix struct {
	f    *gf.Field
	rows int
	cols int
	data []gf.Elem // row-major
}

// New returns a zero rows×cols matrix over f.
func New(f *gf.Field, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{f: f, rows: rows, cols: cols, data: make([]gf.Elem, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(f *gf.Field, n int) *Matrix {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the r×n matrix V[i,j] = points[j]^i, i = 0..r-1.
// With points = (α^0, α^1, …, α^(n-1)) this is the paper's parity-check
// matrix [H]_{i,j} = α^{(i-1)(j-1)} (1-indexed in the paper).
func Vandermonde(f *gf.Field, r int, points []gf.Elem) *Matrix {
	m := New(f, r, len(points))
	for j, p := range points {
		v := gf.Elem(1)
		for i := 0; i < r; i++ {
			m.Set(i, j, v)
			v = f.Mul(v, p)
		}
	}
	return m
}

// RSParityCheck returns the (n-k)×n Reed-Solomon parity-check matrix of
// Appendix D over f, using evaluation points α^0 … α^(n-1). It requires
// field order ≥ n so the points are distinct.
func RSParityCheck(f *gf.Field, k, n int) (*Matrix, error) {
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("matrix: invalid RS parameters k=%d n=%d", k, n)
	}
	if n > f.Size() {
		return nil, fmt.Errorf("matrix: field size %d < n=%d", f.Size(), n)
	}
	points := make([]gf.Elem, n)
	for j := range points {
		points[j] = f.Exp(j)
	}
	return Vandermonde(f, n-k, points), nil
}

// Field returns the field the matrix is defined over.
func (m *Matrix) Field() *gf.Field { return m.f }

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) gf.Elem { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v gf.Elem) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.f, m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []gf.Elem {
	r := make([]gf.Elem, m.cols)
	copy(r, m.data[i*m.cols:(i+1)*m.cols])
	return r
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []gf.Elem {
	c := make([]gf.Elem, m.rows)
	for i := range c {
		c[i] = m.At(i, j)
	}
	return c
}

// SelectCols returns the rows×len(idx) matrix of the chosen columns, in the
// given order. Used to collect the generator columns of surviving blocks
// for heavy decoding.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	s := New(m.f, m.rows, len(idx))
	for jj, j := range idx {
		for i := 0; i < m.rows; i++ {
			s.Set(i, jj, m.At(i, j))
		}
	}
	return s
}

// Sub returns the submatrix rows [r0,r1) × cols [c0,c1).
func (m *Matrix) Sub(r0, r1, c0, c1 int) *Matrix {
	s := New(m.f, r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			s.Set(i-r0, j-c0, m.At(i, j))
		}
	}
	return s
}

// Augment returns [m | other] (same row count).
func (m *Matrix) Augment(other *Matrix) *Matrix {
	if m.rows != other.rows {
		panic("matrix: Augment row mismatch")
	}
	a := New(m.f, m.rows, m.cols+other.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			a.Set(i, j, m.At(i, j))
		}
		for j := 0; j < other.cols; j++ {
			a.Set(i, m.cols+j, other.At(i, j))
		}
	}
	return a
}

// Mul returns m·other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	p := New(m.f, m.rows, other.cols)
	f := m.f
	for i := 0; i < m.rows; i++ {
		for l := 0; l < m.cols; l++ {
			a := m.At(i, l)
			if a == 0 {
				continue
			}
			for j := 0; j < other.cols; j++ {
				b := other.At(l, j)
				if b == 0 {
					continue
				}
				p.Set(i, j, f.Add(p.At(i, j), f.Mul(a, b)))
			}
		}
	}
	return p
}

// MulVec returns m·v for a column vector v (len = cols).
func (m *Matrix) MulVec(v []gf.Elem) []gf.Elem {
	if len(v) != m.cols {
		panic("matrix: MulVec length mismatch")
	}
	out := make([]gf.Elem, m.rows)
	f := m.f
	for i := 0; i < m.rows; i++ {
		var acc gf.Elem
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			if a != 0 && v[j] != 0 {
				acc = f.Add(acc, f.Mul(a, v[j]))
			}
		}
		out[i] = acc
	}
	return out
}

// VecMul returns vᵀ·m for a row vector v (len = rows); this is how a file
// row-vector x is encoded into coded blocks y = x·G.
func (m *Matrix) VecMul(v []gf.Elem) []gf.Elem {
	if len(v) != m.rows {
		panic("matrix: VecMul length mismatch")
	}
	out := make([]gf.Elem, m.cols)
	f := m.f
	for i, a := range v {
		if a == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, b := range row {
			if b != 0 {
				out[j] = f.Add(out[j], f.Mul(a, b))
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.f, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Equal reports element-wise equality (shapes must match too).
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if other.data[i] != v {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	for _, v := range m.data {
		if v != 0 {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%3d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// swapRows exchanges rows i and j in place.
func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// scaleRow multiplies row i by c in place.
func (m *Matrix) scaleRow(i int, c gf.Elem) {
	row := m.data[i*m.cols : (i+1)*m.cols]
	for j := range row {
		row[j] = m.f.Mul(row[j], c)
	}
}

// addScaledRow adds c·row[src] to row[dst] in place.
func (m *Matrix) addScaledRow(dst, src int, c gf.Elem) {
	if c == 0 {
		return
	}
	rd := m.data[dst*m.cols : (dst+1)*m.cols]
	rs := m.data[src*m.cols : (src+1)*m.cols]
	for j := range rd {
		if rs[j] != 0 {
			rd[j] = m.f.Add(rd[j], m.f.Mul(c, rs[j]))
		}
	}
}

// rref reduces m to reduced row echelon form in place and returns the pivot
// column of each pivot row.
func (m *Matrix) rref() []int {
	var pivots []int
	r := 0
	for c := 0; c < m.cols && r < m.rows; c++ {
		// find pivot
		p := -1
		for i := r; i < m.rows; i++ {
			if m.At(i, c) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.swapRows(r, p)
		m.scaleRow(r, m.f.Inv(m.At(r, c)))
		for i := 0; i < m.rows; i++ {
			if i != r && m.At(i, c) != 0 {
				m.addScaledRow(i, r, m.At(i, c))
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

// Rank returns the rank of m (m is not modified).
func (m *Matrix) Rank() int {
	c := m.Clone()
	return len(c.rref())
}

// Inverse returns m⁻¹ or an error if m is not square or is singular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert %dx%d", m.rows, m.cols)
	}
	aug := m.Augment(Identity(m.f, m.rows))
	pivots := aug.rref()
	if len(pivots) != m.rows || pivots[m.rows-1] != m.rows-1 {
		return nil, fmt.Errorf("matrix: singular %dx%d matrix", m.rows, m.cols)
	}
	return aug.Sub(0, m.rows, m.cols, 2*m.cols), nil
}

// NullSpace returns a basis for the right null space {x : m·x = 0} as the
// rows of the returned matrix. Returns nil if the null space is trivial.
// The paper derives the RS generator G as the null space of H (G·Hᵀ = 0).
func (m *Matrix) NullSpace() *Matrix {
	r := m.Clone()
	pivots := r.rref()
	isPivot := make([]bool, m.cols)
	for _, p := range pivots {
		isPivot[p] = true
	}
	var free []int
	for j := 0; j < m.cols; j++ {
		if !isPivot[j] {
			free = append(free, j)
		}
	}
	if len(free) == 0 {
		return nil
	}
	ns := New(m.f, len(free), m.cols)
	for bi, fc := range free {
		ns.Set(bi, fc, 1)
		// each pivot row: x[pivot] = -Σ row[free]·x[free] = row[fc] (char 2)
		for pi, pc := range pivots {
			ns.Set(bi, pc, r.At(pi, fc))
		}
	}
	return ns
}

// Solve solves m·x = b for x, requiring m square and nonsingular.
func (m *Matrix) Solve(b []gf.Elem) ([]gf.Elem, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: Solve needs square matrix, got %dx%d", m.rows, m.cols)
	}
	if len(b) != m.rows {
		return nil, fmt.Errorf("matrix: Solve rhs length %d != %d", len(b), m.rows)
	}
	rhs := New(m.f, m.rows, 1)
	for i, v := range b {
		rhs.Set(i, 0, v)
	}
	aug := m.Augment(rhs)
	pivots := aug.rref()
	if len(pivots) != m.rows || pivots[m.rows-1] >= m.rows {
		return nil, fmt.Errorf("matrix: singular system")
	}
	x := make([]gf.Elem, m.rows)
	for i := range x {
		x[i] = aug.At(i, m.cols)
	}
	return x, nil
}
