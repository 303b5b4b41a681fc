// Package sparse implements compressed sparse row (CSR) matrices with
// int64 entries and the operations the paper's derivations are written in:
// sparse matrix-matrix multiplication, Hadamard (elementwise) products,
// transposition, diagonal operators, and Kronecker products.
//
// It is the test-only reference: no production package imports it. Tests
// evaluate the paper's matrix definitions with it (the Def. 10/11/13/14
// census algebra, A ⊗ B, G∘G²) and compare them with the combinatorial
// code that production runs. It imports no package of this module, so the
// graph package's own tests can use it.
//
// Entries are int64 because every quantity in the paper (adjacency bits,
// path counts, triangle counts) is a nonnegative integer.
//
// The zero value of Matrix is not useful; construct with FromTriplets,
// NewCSR, Identity, or Adjacency.
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

// Arcs is a graph that lists its arcs, as graph.Graph does.
type Arcs interface {
	NumVertices() int
	EachArc(fn func(u, v int32) bool)
}

// Adjacency returns the 0/1 adjacency matrix of g: entry (u, v) is 1 for
// every arc u → v.
func Adjacency(g Arcs) *Matrix {
	var ts []Triplet
	g.EachArc(func(u, v int32) bool {
		ts = append(ts, Triplet{int(u), int(v), 1})
		return true
	})
	n := g.NumVertices()
	return FromTriplets(n, n, ts)
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
