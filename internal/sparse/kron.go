package sparse

import (
	"fmt"
	"math/bits"
)

// Kron returns the explicit Kronecker product m ⊗ n (Def. 1). The result
// has m.Rows()*n.Rows() rows; callers materializing products of graph
// factors should keep the result small (validation-scale). A side of
// 2^31 or more panics.
func Kron(m, n *Matrix) *Matrix {
	const maxSide = 1 << 31
	rowsHi, rows := bits.Mul64(uint64(m.rows), uint64(n.rows))
	colsHi, cols := bits.Mul64(uint64(m.cols), uint64(n.cols))
	if rowsHi != 0 || colsHi != 0 || rows >= maxSide || cols >= maxSide {
		panic(fmt.Sprintf("sparse: Kron of %dx%d and %dx%d too large to materialize", m.rows, m.cols, n.rows, n.cols))
	}
	outRows, outCols := int(rows), int(cols)
	nnz := m.NNZ() * n.NNZ()
	rowPtr := make([]int64, outRows+1)
	colIdx := make([]int32, 0, nnz)
	val := make([]int64, 0, nnz)
	// Row p = i*n.rows + k of the product is the "outer product" of row i
	// of m with row k of n, with column q = j*n.cols + l. Iterating i, k in
	// order and merging columns keeps output sorted: for fixed (i,k), the
	// columns j*n.cols+l are sorted because j ascends and l ascends within.
	for i := 0; i < m.rows; i++ {
		mc, mv := m.Row(i)
		for k := 0; k < n.rows; k++ {
			nc, nv := n.Row(k)
			for ji := range mc {
				base := int64(mc[ji]) * int64(n.cols)
				for li := range nc {
					v := mv[ji] * nv[li]
					if v != 0 {
						colIdx = append(colIdx, int32(base+int64(nc[li])))
						val = append(val, v)
					}
				}
			}
			rowPtr[i*n.rows+k+1] = int64(len(colIdx))
		}
	}
	return &Matrix{rows: outRows, cols: outCols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}
