package sparse

import (
	"fmt"

	"kronvalid/internal/par"
)

// Mul returns the matrix product m·n using a row-wise Gustavson SpGEMM
// with a dense sparse-accumulator (SPA) per worker, parallelized over
// block rows. Complexity is O(sum over rows of flops) with O(cols)
// workspace per worker.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.cols != n.rows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	outRows := m.rows
	outCols := n.cols

	// Pass structure: per-row results, assembled at the end. Each worker
	// owns a contiguous block of rows and a private SPA.
	type rowResult struct {
		cols []int32
		vals []int64
	}
	results := make([]rowResult, outRows)

	par.ForBlocked(int64(outRows), func(lo, hi int64) {
		acc := make([]int64, outCols)  // value accumulator
		mark := make([]int64, outCols) // generation marks: mark[c]==gen means acc[c] live
		list := make([]int32, 0, 1024) // touched columns, unsorted
		gen := int64(0)
		for r := lo; r < hi; r++ {
			gen++
			list = list[:0]
			for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
				j := m.colIdx[k]
				mv := m.val[k]
				for kk := n.rowPtr[j]; kk < n.rowPtr[j+1]; kk++ {
					c := n.colIdx[kk]
					if mark[c] != gen {
						mark[c] = gen
						acc[c] = 0
						list = append(list, c)
					}
					acc[c] += mv * n.val[kk]
				}
			}
			sortInt32(list)
			cols := make([]int32, 0, len(list))
			vals := make([]int64, 0, len(list))
			for _, c := range list {
				if v := acc[c]; v != 0 {
					cols = append(cols, c)
					vals = append(vals, v)
				}
			}
			results[r] = rowResult{cols, vals}
		}
	})

	rowPtr := make([]int64, outRows+1)
	for r := 0; r < outRows; r++ {
		rowPtr[r+1] = rowPtr[r] + int64(len(results[r].cols))
	}
	nnz := rowPtr[outRows]
	colIdx := make([]int32, nnz)
	val := make([]int64, nnz)
	par.ForBlocked(int64(outRows), func(lo, hi int64) {
		for r := lo; r < hi; r++ {
			copy(colIdx[rowPtr[r]:rowPtr[r+1]], results[r].cols)
			copy(val[rowPtr[r]:rowPtr[r+1]], results[r].vals)
		}
	})
	return &Matrix{rows: outRows, cols: outCols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// DiagOfProduct returns diag(m·n) without forming the product: entry r is
// the dot product of row r of m with column r of n, computed as a
// merge-join of row r of m against rows of n (via n's transpose would be
// cheaper for repeated use; this direct form is O(nnz(m) * avg row of n)
// worst case but only touches needed rows).
func DiagOfProduct(m, n *Matrix) []int64 {
	if m.cols != n.rows || m.rows != n.cols {
		panic("sparse: DiagOfProduct needs m (r x c) and n (c x r)")
	}
	nt := n.T()
	out := make([]int64, m.rows)
	par.ForBlocked(int64(m.rows), func(lo, hi int64) {
		for r := lo; r < hi; r++ {
			mc, mv := m.Row(int(r))
			nc, nv := nt.Row(int(r))
			var s int64
			i, j := 0, 0
			for i < len(mc) && j < len(nc) {
				switch {
				case mc[i] < nc[j]:
					i++
				case nc[j] < mc[i]:
					j++
				default:
					s += mv[i] * nv[j]
					i++
					j++
				}
			}
			out[r] = s
		}
	})
	return out
}

// Diag3 returns diag(A·B·C) for square same-size matrices without forming
// the full triple product: it forms P = A·B (one SpGEMM) and then takes
// diag(P·C) by merge-join. This is the building block for the paper's
// diag(A³), diag(A_d A_r A_d^t), etc.
func Diag3(a, b, c *Matrix) []int64 {
	if !a.IsSquare() || !b.IsSquare() || !c.IsSquare() || a.rows != b.rows || b.rows != c.rows {
		panic("sparse: Diag3 needs three square matrices of equal size")
	}
	return DiagOfProduct(a.Mul(b), c)
}

// sortInt32 sorts a small slice of int32 in increasing order. Rows of
// sparse products are typically short; insertion sort wins for the common
// case and falls back to a bottom-up merge via pdqsort-style quicksort for
// longer rows.
func sortInt32(s []int32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	quickInt32(s)
}

func quickInt32(s []int32) {
	for len(s) > 24 {
		// median-of-three pivot
		m := len(s) / 2
		if s[0] > s[m] {
			s[0], s[m] = s[m], s[0]
		}
		if s[0] > s[len(s)-1] {
			s[0], s[len(s)-1] = s[len(s)-1], s[0]
		}
		if s[m] > s[len(s)-1] {
			s[m], s[len(s)-1] = s[len(s)-1], s[m]
		}
		pivot := s[m]
		i, j := 0, len(s)-1
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half; loop on the larger.
		if j+1 < len(s)-i {
			quickInt32(s[:j+1])
			s = s[i:]
		} else {
			quickInt32(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
