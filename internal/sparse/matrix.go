// Package sparse implements compressed sparse row (CSR) matrices with
// int64 entries and the operations the paper's derivations are written in:
// sparse matrix-matrix multiplication, Hadamard (elementwise) products,
// transposition, diagonal operators, and Kronecker products.
//
// Entries are int64 because every quantity in the paper (adjacency bits,
// path counts, triangle counts) is a nonnegative integer, and triangle
// counts of Kronecker product graphs reach the hundreds of trillions: exact
// integer arithmetic is the point of the whole exercise. Arithmetic that
// could overflow int64 is guarded (see CheckedMul in value.go).
//
// The zero value of Matrix is not useful; construct with New, FromTriplets,
// FromDense, Identity, or the graph package's conversions.
package sparse

import (
	"fmt"
	"sort"
)

// Matrix is an immutable-by-convention CSR sparse matrix. Methods never
// mutate their receiver; operations return new matrices. Within each row,
// column indices are strictly increasing. Explicitly stored zeros are not
// allowed (operations drop them), so NNZ counts structurally and
// numerically nonzero entries alike.
type Matrix struct {
	rows, cols int
	rowPtr     []int64 // len rows+1; rowPtr[r]..rowPtr[r+1] index colIdx/val
	colIdx     []int32
	val        []int64
}

// New returns an empty rows x cols matrix (all zeros).
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, rowPtr: make([]int64, rows+1)}
}

// NewCSR wraps raw CSR arrays. It validates structure and panics on
// malformed input; it is intended for package-internal constructors and
// tests that build CSR directly.
func NewCSR(rows, cols int, rowPtr []int64, colIdx []int32, val []int64) *Matrix {
	m := &Matrix{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
	if err := m.check(); err != nil {
		panic("sparse: " + err.Error())
	}
	return m
}

func (m *Matrix) check() error {
	if len(m.rowPtr) != m.rows+1 {
		return fmt.Errorf("rowPtr length %d, want %d", len(m.rowPtr), m.rows+1)
	}
	if m.rowPtr[0] != 0 {
		return fmt.Errorf("rowPtr[0] = %d, want 0", m.rowPtr[0])
	}
	nnz := m.rowPtr[m.rows]
	if int64(len(m.colIdx)) != nnz || int64(len(m.val)) != nnz {
		return fmt.Errorf("nnz arrays have lengths %d/%d, want %d", len(m.colIdx), len(m.val), nnz)
	}
	for r := 0; r < m.rows; r++ {
		if m.rowPtr[r] > m.rowPtr[r+1] {
			return fmt.Errorf("rowPtr not monotone at row %d", r)
		}
		prev := int32(-1)
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			if c <= prev || int(c) >= m.cols {
				return fmt.Errorf("row %d: bad column %d after %d", r, c, prev)
			}
			if m.val[k] == 0 {
				return fmt.Errorf("row %d col %d: stored zero", r, c)
			}
			prev = c
		}
	}
	return nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored (nonzero) entries.
func (m *Matrix) NNZ() int64 { return m.rowPtr[m.rows] }

// At returns the entry at (r, c), using binary search within the row.
func (m *Matrix) At(r, c int) int64 {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of bounds for %dx%d", r, c, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	cols := m.colIdx[lo:hi]
	k := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(c) })
	if k < len(cols) && cols[k] == int32(c) {
		return m.val[lo+int64(k)]
	}
	return 0
}

// Row returns the column indices and values of row r. The returned slices
// alias internal storage and must not be modified.
func (m *Matrix) Row(r int) (cols []int32, vals []int64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// Each calls fn(r, c, v) for every stored entry in row-major order,
// stopping early if fn returns false.
func (m *Matrix) Each(fn func(r, c int, v int64) bool) {
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if !fn(r, int(m.colIdx[k]), m.val[k]) {
				return
			}
		}
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int64(nil), m.rowPtr...),
		colIdx: append([]int32(nil), m.colIdx...),
		val:    append([]int64(nil), m.val...),
	}
}

// Equal reports whether m and n have identical dimensions and entries.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.rows != n.rows || m.cols != n.cols || m.NNZ() != n.NNZ() {
		return false
	}
	for r := 0; r <= m.rows; r++ {
		if m.rowPtr[r] != n.rowPtr[r] {
			return false
		}
	}
	for k := range m.colIdx {
		if m.colIdx[k] != n.colIdx[k] || m.val[k] != n.val[k] {
			return false
		}
	}
	return true
}

// IsZero reports whether the matrix has no stored entries.
func (m *Matrix) IsZero() bool { return m.NNZ() == 0 }

// IsSquare reports whether rows == cols.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// IsSymmetric reports whether the matrix equals its transpose.
func (m *Matrix) IsSymmetric() bool {
	if !m.IsSquare() {
		return false
	}
	return m.Equal(m.T())
}

// IsBinary reports whether all stored values are 1, i.e. the matrix is a
// plain adjacency matrix.
func (m *Matrix) IsBinary() bool {
	for _, v := range m.val {
		if v != 1 {
			return false
		}
	}
	return true
}

// String renders small matrices densely for debugging; large matrices are
// summarized.
func (m *Matrix) String() string {
	if m.rows > 16 || m.cols > 16 {
		return fmt.Sprintf("sparse.Matrix{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
	}
	s := ""
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%d", m.At(r, c))
		}
		s += "\n"
	}
	return s
}

// Triplet is a single (row, col, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      int64
}

// FromTriplets builds a matrix from coordinate entries. Duplicate
// coordinates are summed; entries that sum to zero are dropped.
func FromTriplets(rows, cols int, ts []Triplet) *Matrix {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) out of bounds for %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	sorted := append([]Triplet(nil), ts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Row != sorted[b].Row {
			return sorted[a].Row < sorted[b].Row
		}
		return sorted[a].Col < sorted[b].Col
	})
	rowPtr := make([]int64, rows+1)
	var colIdx []int32
	var val []int64
	i := 0
	for i < len(sorted) {
		j := i
		var sum int64
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		if sum != 0 {
			colIdx = append(colIdx, int32(sorted[i].Col))
			val = append(val, sum)
			rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return &Matrix{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// FromDense builds a sparse matrix from a dense row-major slice of slices.
func FromDense(d [][]int64) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	var ts []Triplet
	for r, row := range d {
		if len(row) != cols {
			panic("sparse: ragged dense input")
		}
		for c, v := range row {
			if v != 0 {
				ts = append(ts, Triplet{r, c, v})
			}
		}
	}
	return FromTriplets(rows, cols, ts)
}

// ToDense returns the dense [][]int64 form (for tests and small examples).
func (m *Matrix) ToDense() [][]int64 {
	d := make([][]int64, m.rows)
	buf := make([]int64, m.rows*m.cols)
	for r := range d {
		d[r], buf = buf[:m.cols], buf[m.cols:]
	}
	m.Each(func(r, c int, v int64) bool {
		d[r][c] = v
		return true
	})
	return d
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	rowPtr := make([]int64, n+1)
	colIdx := make([]int32, n)
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = int64(i + 1)
		colIdx[i] = int32(i)
		val[i] = 1
	}
	return &Matrix{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
}
