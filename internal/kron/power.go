package kron

import (
	"errors"
	"fmt"

	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
)

// MultiProduct is the k-fold implicit Kronecker product
// C = B_1 ⊗ B_2 ⊗ … ⊗ B_k, the construction used by the extreme-scale
// generator the paper builds on ([3]: repeated Kronecker powers of small
// power-law factors). All of §III's formulas generalize: the four-term
// vertex expansion and five-term edge expansion factor across any number
// of factors because every ingredient (diag(·³) terms, Hadamard-square
// terms, D parts) is itself a Kronecker product of per-factor matrices.
//
// Vertex indexing is mixed-radix: p = ((i_1·n_2 + i_2)·n_3 + i_3)… with
// factor 1 as the most significant digit, consistent with the binary
// Product when k = 2.
//
// Like Product, it computes each distinct factor's statistics once, on
// first use; Factors must not be reassigned after NewMultiProduct.
type MultiProduct struct {
	Factors []*graph.Graph
	radix   []int64 // radix[i] = Π_{j>i} n_j
	memos   []*factorMemo
}

// NewMultiProduct validates the factors (at least one; sizes multiply
// within int64).
func NewMultiProduct(factors ...*graph.Graph) (*MultiProduct, error) {
	if len(factors) == 0 {
		return nil, errors.New("kron: MultiProduct needs at least one factor")
	}
	nv, na := int64(1), int64(1)
	for _, f := range factors {
		if f.NumVertices() == 0 {
			return nil, errors.New("kron: empty factor")
		}
		var err error
		nv, err = sparse.CheckedMul(nv, int64(f.NumVertices()))
		if err != nil {
			return nil, fmt.Errorf("kron: vertex count overflow: %w", err)
		}
		na, err = sparse.CheckedMul(na, f.NumArcs())
		if err != nil {
			return nil, fmt.Errorf("kron: arc count overflow: %w", err)
		}
	}
	radix := make([]int64, len(factors))
	acc := int64(1)
	for i := len(factors) - 1; i >= 0; i-- {
		radix[i] = acc
		acc *= int64(factors[i].NumVertices())
	}
	return &MultiProduct{Factors: factors, radix: radix, memos: newFactorMemos(factors...)}, nil
}

// MustMultiProduct panics on invalid factors.
func MustMultiProduct(factors ...*graph.Graph) *MultiProduct {
	p, err := NewMultiProduct(factors...)
	if err != nil {
		panic(err)
	}
	return p
}

// KroneckerPower returns the k-th Kronecker power B ⊗ B ⊗ … ⊗ B.
func KroneckerPower(b *graph.Graph, k int) (*MultiProduct, error) {
	if k < 1 {
		return nil, errors.New("kron: power must be >= 1")
	}
	factors := make([]*graph.Graph, k)
	for i := range factors {
		factors[i] = b
	}
	return NewMultiProduct(factors...)
}

// K returns the number of factors.
func (p *MultiProduct) K() int { return len(p.Factors) }

// NumVertices returns Π n_i.
func (p *MultiProduct) NumVertices() int64 {
	return p.radix[0] * int64(p.Factors[0].NumVertices())
}

// NumArcs returns Π |arcs(B_i)|.
func (p *MultiProduct) NumArcs() int64 {
	na := int64(1)
	for _, f := range p.Factors {
		na *= f.NumArcs()
	}
	return na
}

// Vertex composes per-factor vertices into a product vertex.
func (p *MultiProduct) Vertex(idx []int32) int64 {
	if len(idx) != len(p.Factors) {
		panic("kron: Vertex index arity mismatch")
	}
	var v int64
	for i, x := range idx {
		v += int64(x) * p.radix[i]
	}
	return v
}

// FactorsOf splits a product vertex into per-factor vertices.
func (p *MultiProduct) FactorsOf(v int64) []int32 {
	out := make([]int32, len(p.Factors))
	for i := range p.Factors {
		out[i] = int32(v / p.radix[i] % int64(p.Factors[i].NumVertices()))
	}
	return out
}

// IsSymmetric reports whether all factors (hence C) are symmetric.
func (p *MultiProduct) IsSymmetric() bool {
	for _, f := range p.Factors {
		if !f.IsSymmetric() {
			return false
		}
	}
	return true
}

// HasEdge reports whether arc (u, v) exists: the conjunction of factor
// adjacencies.
func (p *MultiProduct) HasEdge(u, v int64) bool {
	fu := p.FactorsOf(u)
	fv := p.FactorsOf(v)
	for i, f := range p.Factors {
		if !f.HasEdge(fu[i], fv[i]) {
			return false
		}
	}
	return true
}

// HasLoop reports whether v has a self loop (loops at every factor
// vertex).
func (p *MultiProduct) HasLoop(v int64) bool {
	for i, x := range p.FactorsOf(v) {
		if !p.Factors[i].LoopAt(x) {
			return false
		}
	}
	return true
}

// Degree returns the loop-excluded degree of product vertex v:
// Π (d_i + s_i) − Π s_i.
func (p *MultiProduct) Degree(v int64) int64 {
	idx := p.FactorsOf(v)
	raw := int64(1)
	loop := true
	for i, f := range p.Factors {
		raw *= f.OutDegreeRaw(idx[i])
		loop = loop && f.LoopAt(idx[i])
	}
	if loop {
		raw--
	}
	return raw
}

// EachArc streams every arc of C in lexicographic order by recursive
// factor expansion, stopping early if fn returns false.
func (p *MultiProduct) EachArc(fn func(u, v int64) bool) {
	k := len(p.Factors)
	idxU := make([]int32, k)
	idxV := make([]int32, k)
	var rec func(depth int) bool
	rec = func(depth int) bool {
		if depth == k {
			return fn(p.Vertex(idxU), p.Vertex(idxV))
		}
		f := p.Factors[depth]
		for u := int32(0); u < int32(f.NumVertices()); u++ {
			nb := f.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			idxU[depth] = u
			for _, v := range nb {
				idxV[depth] = v
				if !rec(depth + 1) {
					return false
				}
			}
		}
		return true
	}
	rec(0)
}

// Materialize builds the explicit product (validation scale only).
func (p *MultiProduct) Materialize(maxVertices, maxArcs int64) (*graph.Graph, error) {
	if p.NumVertices() > maxVertices || p.NumArcs() > maxArcs || p.NumVertices() > (1<<31-1) {
		return nil, fmt.Errorf("%w: %d vertices, %d arcs", ErrTooLarge, p.NumVertices(), p.NumArcs())
	}
	edges := make([]graph.Edge, 0, p.NumArcs())
	p.EachArc(func(u, v int64) bool {
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		return true
	})
	return graph.FromEdges(int(p.NumVertices()), edges, false), nil
}

// multiVecSum represents Σ_m coef_m ⊗_i u_{m,i} with a common divisor,
// the k-factor generalization of KronVecSum.
type multiVecTerm struct {
	coef int64
	us   [][]int64
}

// MultiVecSum is a lazily evaluated per-vertex statistic of a k-fold
// product.
type MultiVecSum struct {
	terms []multiVecTerm
	den   int64
	p     *MultiProduct
}

// At evaluates the statistic at product vertex v.
func (s *MultiVecSum) At(v int64) int64 {
	idx := s.p.FactorsOf(v)
	var acc int64
	for _, t := range s.terms {
		prod := t.coef
		for i, u := range t.us {
			prod *= u[idx[i]]
			if prod == 0 {
				break
			}
		}
		acc += prod
	}
	if acc%s.den != 0 {
		panic(fmt.Sprintf("kron: non-integral multi statistic %d/%d", acc, s.den))
	}
	return acc / s.den
}

// Total returns the checked sum over all product vertices.
func (s *MultiVecSum) Total() (int64, error) {
	var acc int64
	for _, t := range s.terms {
		prod := int64(1)
		var err error
		for _, u := range t.us {
			if prod, err = sparse.CheckedMul(prod, sparse.SumVec(u)); err != nil {
				return 0, err
			}
		}
		if acc, err = addTerm(acc, t.coef, prod); err != nil {
			return 0, err
		}
	}
	if acc%s.den != 0 {
		return 0, fmt.Errorf("kron: non-integral multi total %d/%d", acc, s.den)
	}
	return acc / s.den, nil
}

// Vector materializes the statistic (validation scale).
func (s *MultiVecSum) Vector() []int64 {
	out := make([]int64, s.p.NumVertices())
	for v := range out {
		out[v] = s.At(int64(v))
	}
	return out
}

// MultiVertexParticipation returns t_C for the k-fold product in all
// self-loop regimes: the same four-term expansion as the binary case,
// with every term a k-fold Kronecker product of per-factor diagonals:
//
//	t_C = ½[ ⊗diag(B_i³) − 2·⊗diag(B_i²D_i) − ⊗diag(B_i D_i B_i)
//	         + 2·⊗diag(D_i) ].
//
// All factors must be undirected.
func MultiVertexParticipation(p *MultiProduct) (*MultiVecSum, error) {
	stats, allLoops, err := p.factorStats()
	if err != nil {
		return nil, err
	}
	k := len(stats)
	cube := make([][]int64, k)
	sqD := make([][]int64, k)
	bdb := make([][]int64, k)
	dd := make([][]int64, k)
	for i, st := range stats {
		cube[i], sqD[i], bdb[i], dd[i] = st.DiagCube, st.diagSqD, st.diagGDG, st.loopDiag
	}
	s := &MultiVecSum{den: 2, p: p}
	s.terms = append(s.terms, multiVecTerm{coef: 1, us: cube})
	if allLoops {
		s.terms = append(s.terms,
			multiVecTerm{coef: -2, us: sqD},
			multiVecTerm{coef: -1, us: bdb},
			multiVecTerm{coef: 2, us: dd},
		)
	}
	return s, nil
}

// factorStats returns the statistics of every factor, and whether all of
// them have loops: D_C = ⊗D_i is nonzero, and the loop terms of the
// expansions present, only then. All factors must be undirected.
func (p *MultiProduct) factorStats() (stats []*FactorTriangleStats, allLoops bool, err error) {
	if !p.IsSymmetric() {
		return nil, false, errors.New("kron: formula requires undirected factors")
	}
	stats = make([]*FactorTriangleStats, len(p.memos))
	allLoops = true
	for i, m := range p.memos {
		stats[i] = m.get()
		allLoops = allLoops && stats[i].hasLoops()
	}
	return stats, allLoops, nil
}

// MultiTriangleTotal returns exact τ(C) for the k-fold product; for
// loop-free factors this is 6^{k-1}·Π τ(B_i).
func MultiTriangleTotal(p *MultiProduct) (int64, error) {
	t, err := MultiVertexParticipation(p)
	if err != nil {
		return 0, err
	}
	total, err := t.Total()
	if err != nil {
		return 0, err
	}
	if total%3 != 0 {
		return 0, errors.New("kron: multi participation total not divisible by 3")
	}
	return total / 3, nil
}

// MultiEdgeDelta evaluates Δ_C at one arc of the k-fold product via the
// five-term expansion (every term a k-fold ⊗ of factor matrices):
//
//	Δ_C = ⊗(B∘B²) − ⊗(D B) − ⊗(B D) + 2·⊗D − ⊗(D∘B²).
//
// Returned as a closure over precomputed factor matrices.
func MultiEdgeDelta(p *MultiProduct) (func(u, v int64) int64, error) {
	stats, allLoops, err := p.factorStats()
	if err != nil {
		return nil, err
	}
	return func(u, v int64) int64 {
		fu, fv := p.FactorsOf(u), p.FactorsOf(v)
		had, db, bd, d, dHad := int64(1), int64(1), int64(1), int64(1), int64(1)
		for i, st := range stats {
			r, c := int(fu[i]), int(fv[i])
			had *= st.HadSquare.At(r, c)
			if allLoops {
				db *= st.loopRows.At(r, c)
				bd *= st.loopCols.At(r, c)
				d *= st.loopPart.At(r, c)
				dHad *= st.loopHadSq.At(r, c)
			}
		}
		if !allLoops {
			return had
		}
		return had - db - bd + 2*d - dHad
	}, nil
}
