package kron

import (
	"fmt"

	"kronvalid/internal/sparse"
)

// VecTerm is one signed Kronecker term coef·(u ⊗ v) of a vertex-statistic
// expansion.
type VecTerm struct {
	Coef int64
	U, V []int64
}

// KronVecSum represents a vertex statistic of the product graph as
// (1/Den)·Σ_m coef_m (u_m ⊗ v_m), evaluated lazily per product vertex.
// This is the shape every per-vertex Kronecker formula in the paper takes
// (Thm. 1, Cor. 1, the general self-loop expansion, Thm. 4, Thm. 6).
type KronVecSum struct {
	Terms []VecTerm
	Den   int64 // divisor applied after summation (1 or 2)
	nB    int64
}

// At evaluates the statistic at product vertex p.
func (s *KronVecSum) At(p int64) int64 {
	i, k := p/s.nB, p%s.nB
	var acc int64
	for _, t := range s.Terms {
		acc += t.Coef * t.U[i] * t.V[k]
	}
	if acc%s.Den != 0 {
		panic(fmt.Sprintf("kron: non-integral statistic %d/%d at vertex %d", acc, s.Den, p))
	}
	return acc / s.Den
}

// Len returns the number of product vertices.
func (s *KronVecSum) Len() int64 {
	if len(s.Terms) == 0 {
		return 0
	}
	return int64(len(s.Terms[0].U)) * s.nB
}

// Vector materializes the full statistic vector; only for
// validation-scale products.
func (s *KronVecSum) Vector() []int64 {
	out := make([]int64, s.Len())
	for p := range out {
		out[p] = s.At(int64(p))
	}
	return out
}

// Total returns Σ_p At(p) with overflow checking, computed from factor
// sums: Σ (u ⊗ v) = (Σu)·(Σv).
func (s *KronVecSum) Total() (int64, error) {
	var acc int64
	for _, t := range s.Terms {
		su, sv := sparse.SumVec(t.U), sparse.SumVec(t.V)
		prod, err := sparse.CheckedMul(su, sv)
		if err != nil {
			return 0, err
		}
		if acc, err = addTerm(acc, t.Coef, prod); err != nil {
			return 0, err
		}
	}
	if acc%s.Den != 0 {
		return 0, fmt.Errorf("kron: non-integral total %d/%d", acc, s.Den)
	}
	return acc / s.Den, nil
}

// MustTotal is Total that panics on overflow.
func (s *KronVecSum) MustTotal() int64 {
	v, err := s.Total()
	if err != nil {
		panic(err)
	}
	return v
}

// MatTerm is one signed Kronecker term coef·(M ⊗ N) of an edge-statistic
// expansion.
type MatTerm struct {
	Coef int64
	M, N *sparse.Matrix
}

// KronMatSum represents an edge statistic of the product graph as
// Σ_m coef_m (M_m ⊗ N_m), evaluated lazily per product arc. This is the
// shape of every per-edge Kronecker formula (Thm. 2, Cor. 2, the general
// self-loop expansion, Thm. 5, Thm. 7).
type KronMatSum struct {
	Terms []MatTerm
	nB    int64 // rows of N (product row block size)
	mB    int64 // cols of N (product col block size)
}

// At evaluates the statistic at product arc (p, q).
func (s *KronMatSum) At(p, q int64) int64 {
	i, k := p/s.nB, p%s.nB
	j, l := q/s.mB, q%s.mB
	var acc int64
	for _, t := range s.Terms {
		mv := t.M.At(int(i), int(j))
		if mv == 0 {
			continue
		}
		nv := t.N.At(int(k), int(l))
		if nv == 0 {
			continue
		}
		acc += t.Coef * mv * nv
	}
	return acc
}

// Materialize builds the explicit statistic matrix via explicit Kronecker
// products; only for validation-scale products.
func (s *KronMatSum) Materialize() *sparse.Matrix {
	if len(s.Terms) == 0 {
		panic("kron: empty KronMatSum")
	}
	var acc *sparse.Matrix
	for _, t := range s.Terms {
		m := sparse.Kron(t.M, t.N).Scale(t.Coef)
		if acc == nil {
			acc = m
		} else {
			acc = acc.Add(m)
		}
	}
	return acc
}

// Total returns the sum of all entries, from factor totals, with overflow
// checking.
func (s *KronMatSum) Total() (int64, error) {
	var acc int64
	for _, t := range s.Terms {
		prod, err := sparse.CheckedMul(t.M.Total(), t.N.Total())
		if err != nil {
			return 0, err
		}
		if acc, err = addTerm(acc, t.Coef, prod); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// addTerm returns acc + coef·prod for a nonnegative count prod, or
// ErrOverflow if the multiply or the add leaves int64.
func addTerm(acc, coef, prod int64) (int64, error) {
	mag := coef
	if mag < 0 {
		mag = -mag
	}
	term, err := sparse.CheckedMul(mag, prod)
	if err != nil {
		return 0, err
	}
	if coef < 0 {
		term = -term
	}
	sum := acc + term
	if (term > 0 && sum < acc) || (term < 0 && sum > acc) {
		return 0, sparse.ErrOverflow
	}
	return sum, nil
}
