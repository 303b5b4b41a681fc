package kron

import (
	"errors"

	"kronvalid/internal/truss"
)

// ProductTruss is the Kronecker-derived truss decomposition of C = A ⊗ B
// under Thm. 3's hypotheses: both factors undirected and loop-free, and
// every edge of B participating in at most one triangle (Δ_B ≤ 1). Then
//
//	(p,q) ∈ T^(κ)_C  ⇔  (i,j) ∈ T^(κ)_A and (k,l) ∈ T^(3)_B,
//
// so the trussness of every edge of C is read off the decomposition of A
// and the 0/1 statistic Δ_B on B's arcs.
type ProductTruss struct {
	p      *Product
	trussA *truss.Decomposition
	deltaB []int64
	b3     int64 // undirected edges of B in a triangle: Σ Δ_B / 2
}

// TrussDecomposition validates Thm. 3's hypotheses and returns the
// implicit truss decomposition of C.
func TrussDecomposition(p *Product) (*ProductTruss, error) {
	a, b, err := p.pair("Thm. 3")
	if err != nil {
		return nil, err
	}
	if !a.IsSymmetric() || !b.IsSymmetric() {
		return nil, errors.New("kron: Thm. 3 requires undirected factors")
	}
	if a.HasAnyLoop() || b.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 3 requires loop-free factors")
	}
	sb := p.memos[1].get()
	var arcs3 int64
	for _, d := range sb.Delta {
		if d > 1 {
			return nil, errors.New("kron: Thm. 3 requires Δ_B ≤ 1 (every edge of B in at most one triangle)")
		}
		arcs3 += d
	}
	return &ProductTruss{
		p:      p,
		trussA: truss.Decompose(a),
		deltaB: sb.Delta,
		b3:     arcs3 / 2,
	}, nil
}

// EdgeTruss returns the trussness of product edge (u, v): the largest κ
// such that (u, v) lies in a κ-truss of C. It returns 0 if (u, v) is not
// an edge of C, and 2 for edges in no triangle of C.
func (t *ProductTruss) EdgeTruss(u, v int64) int {
	if !t.p.HasEdge(u, v) {
		return 0
	}
	i, k := t.p.digit(u, 0), t.p.digit(u, 1)
	j, l := t.p.digit(v, 0), t.p.digit(v, 1)
	if t.deltaB[t.p.Factors[1].ArcIndex(k, l)] == 0 {
		return 2 // the product edge closes no triangle
	}
	// Δ_C(u,v) = Δ_A(i,j)·1; peeling proceeds in lockstep with A.
	kA := t.trussA.EdgeTruss(i, j)
	if kA < 2 {
		return 2
	}
	return kA
}

// MaxK returns the largest κ with a non-empty κ-truss in C: MaxK(A) when
// B has any triangle, else 2.
func (t *ProductTruss) MaxK() int {
	if t.b3 == 0 {
		return 2
	}
	return t.trussA.MaxK
}

// TrussSizes returns |T^(κ)_C| for κ = 3..MaxK, each equal to
// |T^(κ)_A| · |T^(3)_B| arcs... counted as undirected edges:
// |T^(κ)_C| = |T^(κ)_A| · |E(Δ_B = 1)| where both counts are undirected
// edge counts of the respective factors (every combination of a κ-truss
// edge of A and a triangle edge of B is a κ-truss edge of C, and each
// undirected product edge arises from exactly two (arcA, arcB) pairings).
func (t *ProductTruss) TrussSizes() map[int]int64 {
	out := map[int]int64{}
	for k := 3; k <= t.trussA.MaxK; k++ {
		out[k] = int64(len(t.trussA.KTrussEdges(k))) * 2 * t.b3
	}
	return out
}
