package sparse

import "fmt"

// T returns the transpose, computed by a counting sort over columns
// (O(nnz + rows + cols)).
func (m *Matrix) T() *Matrix {
	nnz := m.NNZ()
	rowPtr := make([]int64, m.cols+1)
	for _, c := range m.colIdx {
		rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		rowPtr[c+1] += rowPtr[c]
	}
	colIdx := make([]int32, nnz)
	val := make([]int64, nnz)
	next := append([]int64(nil), rowPtr...)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			pos := next[c]
			next[c]++
			colIdx[pos] = int32(r)
			val[pos] = m.val[k]
		}
	}
	return &Matrix{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

func dimCheck(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// combine merges two matrices row by row applying f(av, bv) to aligned
// entries (missing entries are 0). Entries where f yields 0 are dropped.
func combine(a, b *Matrix, f func(av, bv int64) int64) *Matrix {
	rowPtr := make([]int64, a.rows+1)
	colIdx := make([]int32, 0, a.NNZ()+b.NNZ())
	val := make([]int64, 0, a.NNZ()+b.NNZ())
	for r := 0; r < a.rows; r++ {
		ai, ae := a.rowPtr[r], a.rowPtr[r+1]
		bi, be := b.rowPtr[r], b.rowPtr[r+1]
		for ai < ae || bi < be {
			var c int32
			var av, bv int64
			switch {
			case bi >= be || (ai < ae && a.colIdx[ai] < b.colIdx[bi]):
				c, av = a.colIdx[ai], a.val[ai]
				ai++
			case ai >= ae || b.colIdx[bi] < a.colIdx[ai]:
				c, bv = b.colIdx[bi], b.val[bi]
				bi++
			default:
				c, av, bv = a.colIdx[ai], a.val[ai], b.val[bi]
				ai++
				bi++
			}
			if v := f(av, bv); v != 0 {
				colIdx = append(colIdx, c)
				val = append(val, v)
			}
		}
		rowPtr[r+1] = int64(len(colIdx))
	}
	return &Matrix{rows: a.rows, cols: a.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Add returns m + n.
func (m *Matrix) Add(n *Matrix) *Matrix {
	dimCheck("Add", m, n)
	return combine(m, n, func(a, b int64) int64 { return a + b })
}

// Sub returns m - n.
func (m *Matrix) Sub(n *Matrix) *Matrix {
	dimCheck("Sub", m, n)
	return combine(m, n, func(a, b int64) int64 { return a - b })
}

// Hadamard returns the elementwise product m ∘ n (Def. 2 in the paper).
func (m *Matrix) Hadamard(n *Matrix) *Matrix {
	dimCheck("Hadamard", m, n)
	// Intersection merge: only coordinates present in both survive.
	rowPtr := make([]int64, m.rows+1)
	minNNZ := m.NNZ()
	if n.NNZ() < minNNZ {
		minNNZ = n.NNZ()
	}
	colIdx := make([]int32, 0, minNNZ)
	val := make([]int64, 0, minNNZ)
	for r := 0; r < m.rows; r++ {
		ai, ae := m.rowPtr[r], m.rowPtr[r+1]
		bi, be := n.rowPtr[r], n.rowPtr[r+1]
		for ai < ae && bi < be {
			ac, bc := m.colIdx[ai], n.colIdx[bi]
			switch {
			case ac < bc:
				ai++
			case bc < ac:
				bi++
			default:
				if v := m.val[ai] * n.val[bi]; v != 0 {
					colIdx = append(colIdx, ac)
					val = append(val, v)
				}
				ai++
				bi++
			}
		}
		rowPtr[r+1] = int64(len(colIdx))
	}
	return &Matrix{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Scale returns a*m. Scaling by 0 returns the zero matrix.
func (m *Matrix) Scale(a int64) *Matrix {
	if a == 0 {
		return New(m.rows, m.cols)
	}
	out := m.Clone()
	for i := range out.val {
		out.val[i] *= a
	}
	return out
}

// Diag returns the main diagonal as a vector (the paper's diag(A) =
// (I ∘ A)·1). Panics if the matrix is not square.
func (m *Matrix) Diag() []int64 {
	if !m.IsSquare() {
		panic("sparse: Diag of non-square matrix")
	}
	d := make([]int64, m.rows)
	for r := 0; r < m.rows; r++ {
		d[r] = m.At(r, r)
	}
	return d
}

// DiagMatrix returns the diagonal matrix with diagonal d.
func DiagMatrix(d []int64) *Matrix {
	ts := make([]Triplet, 0, len(d))
	for i, v := range d {
		if v != 0 {
			ts = append(ts, Triplet{i, i, v})
		}
	}
	return FromTriplets(len(d), len(d), ts)
}

// DiagPart returns D_A = I ∘ A: the matrix holding only the diagonal of A
// (Def. 4, used throughout the self-loop derivations).
func (m *Matrix) DiagPart() *Matrix {
	return DiagMatrix(m.Diag())
}

// RowSums returns the vector of row sums (A·1). For an adjacency matrix
// with no self loops this is the out-degree vector.
func (m *Matrix) RowSums() []int64 {
	out := make([]int64, m.rows)
	for r := 0; r < m.rows; r++ {
		var s int64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.val[k]
		}
		out[r] = s
	}
	return out
}

// ColSums returns the vector of column sums (A^t·1).
func (m *Matrix) ColSums() []int64 {
	out := make([]int64, m.cols)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			out[m.colIdx[k]] += m.val[k]
		}
	}
	return out
}

// Total returns the sum of all entries (1^t A 1).
func (m *Matrix) Total() int64 {
	var s int64
	for _, v := range m.val {
		s += v
	}
	return s
}

// Trace returns the sum of diagonal entries.
func (m *Matrix) Trace() int64 {
	if !m.IsSquare() {
		panic("sparse: Trace of non-square matrix")
	}
	var s int64
	for r := 0; r < m.rows; r++ {
		s += m.At(r, r)
	}
	return s
}

// MaxVal returns the maximum stored value, or 0 for an empty matrix.
func (m *Matrix) MaxVal() int64 {
	var mx int64
	for _, v := range m.val {
		if v > mx {
			mx = v
		}
	}
	return mx
}
