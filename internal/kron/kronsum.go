package kron

import (
	"errors"
	"fmt"
	"math/bits"

	"kronvalid/internal/graph"
)

// ErrOverflow is returned (or panicked, in contexts where a statistic is
// guaranteed representable) when an exact integer computation would exceed
// int64. Triangle totals of Kronecker product graphs grow multiplicatively,
// so the library checks rather than silently wrapping.
var ErrOverflow = errors.New("kron: int64 overflow in exact computation")

// CheckedMul returns a*b, or ErrOverflow if the product does not fit int64.
// Inputs are expected to be nonnegative counts.
func CheckedMul(a, b int64) (int64, error) {
	if a < 0 || b < 0 {
		return 0, errors.New("kron: negative count")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1<<63-1) {
		return 0, ErrOverflow
	}
	return int64(lo), nil
}

// vecSum returns Σ v (the paper's 1^t v).
func vecSum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// VecTerm is one signed Kronecker term coef·(u₀ ⊗ u₁ ⊗ … ⊗ u_{k−1}) of a
// vertex-statistic expansion, one vector per factor.
type VecTerm struct {
	Coef int64
	Vecs [][]int64
}

// KronVecSum represents a vertex statistic of the product graph as
// (1/Den)·Σ_m coef_m (⊗_i u_{m,i}), evaluated lazily per product vertex.
// This is the shape every per-vertex Kronecker formula in the paper takes
// (Thm. 1, Cor. 1, the general self-loop expansion, Thm. 4, Thm. 6).
// Vector i has factor i's vertex count as its length.
type KronVecSum struct {
	Terms []VecTerm
	Den   int64 // divisor applied after summation (1 or 2)
}

// At evaluates the statistic at product vertex p.
func (s *KronVecSum) At(p int64) int64 {
	var acc int64
	for _, t := range s.Terms {
		acc += t.Coef * vecAt(t.Vecs, p)
	}
	if acc%s.Den != 0 {
		panic(fmt.Sprintf("kron: non-integral statistic %d/%d at vertex %d", acc, s.Den, p))
	}
	return acc / s.Den
}

// vecAt returns (⊗_i u_i)[p], the product of u_i at p's mixed-radix
// digits, the last vector's the least significant.
func vecAt(us [][]int64, p int64) int64 {
	prod := int64(1)
	for i := len(us) - 1; i > 0; i-- {
		n := int64(len(us[i]))
		if prod *= us[i][p%n]; prod == 0 {
			return 0
		}
		p /= n
	}
	return prod * us[0][p]
}

// Len returns the number of product vertices.
func (s *KronVecSum) Len() int64 {
	if len(s.Terms) == 0 {
		return 0
	}
	n := int64(1)
	for _, u := range s.Terms[0].Vecs {
		n *= int64(len(u))
	}
	return n
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
// sums: Σ (⊗_i u_i) = Π_i Σu_i.
func (s *KronVecSum) Total() (int64, error) {
	var acc int64
	for _, t := range s.Terms {
		prod := int64(1)
		var err error
		for _, u := range t.Vecs {
			if prod, err = CheckedMul(prod, vecSum(u)); err != nil {
				return 0, err
			}
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

// MatTerm is one signed Kronecker term coef·(M₀ ⊗ M₁ ⊗ … ⊗ M_{k−1}) of an
// edge-statistic expansion, one matrix per factor, each held as a
// per-edge statistic of its factor: Arcs[i] has one value per arc of
// factor i, at the arc's position.
type MatTerm struct {
	Coef int64
	Arcs [][]int64
}

// KronMatSum represents an edge statistic of the product graph as
// Σ_m coef_m (⊗_i M_{m,i}), evaluated lazily per product arc. This is the
// shape of every per-edge Kronecker formula (Thm. 2, Cor. 2, the general
// self-loop expansion, Thm. 5, Thm. 7). Every matrix is supported on its
// factor's arcs, so the statistic is supported on the product's.
type KronMatSum struct {
	Factors []*graph.Graph
	Terms   []MatTerm
}

// At evaluates the statistic at product arc (p, q), 0 if (p, q) is not
// an arc of the product.
func (s *KronMatSum) At(p, q int64) int64 {
	var acc int64
	for _, t := range s.Terms {
		acc += t.Coef * s.termAt(t.Arcs, p, q)
	}
	return acc
}

// termAt returns (⊗_i M_i)[p][q]: the product of M_i at the arc of factor
// i joining the mixed-radix digits of p and q, or 0 if a digit pair is no
// arc.
func (s *KronMatSum) termAt(ms [][]int64, p, q int64) int64 {
	prod := int64(1)
	for i := len(ms) - 1; i >= 0 && prod != 0; i-- {
		g := s.Factors[i]
		n := int64(g.NumVertices())
		a := g.ArcIndex(int32(p%n), int32(q%n))
		if a < 0 {
			return 0
		}
		prod *= ms[i][a]
		p, q = p/n, q/n
	}
	return prod
}

// EqualOnArcs reports whether the statistic equals want at every arc of
// c, the explicit product (Product.Materialize), where want is a per-edge
// statistic of c.
func (s *KronMatSum) EqualOnArcs(c *graph.Graph, want []int64) bool {
	for u := int32(0); int(u) < c.NumVertices(); u++ {
		base := c.ArcOffset(u)
		for k, v := range c.Neighbors(u) {
			if s.At(int64(u), int64(v)) != want[base+int64(k)] {
				return false
			}
		}
	}
	return true
}

// Total returns the sum of all entries, from factor totals, with overflow
// checking.
func (s *KronMatSum) Total() (int64, error) {
	var acc int64
	for _, t := range s.Terms {
		prod := int64(1)
		var err error
		for _, m := range t.Arcs {
			if prod, err = CheckedMul(prod, vecSum(m)); err != nil {
				return 0, err
			}
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
	term, err := CheckedMul(mag, prod)
	if err != nil {
		return 0, err
	}
	if coef < 0 {
		term = -term
	}
	sum := acc + term
	if (term > 0 && sum < acc) || (term < 0 && sum > acc) {
		return 0, ErrOverflow
	}
	return sum, nil
}
