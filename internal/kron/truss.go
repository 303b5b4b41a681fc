package kron

import (
	"errors"

	"kronvalid/internal/sparse"
	"kronvalid/internal/truss"
)

// ProductTruss is the Kronecker-derived truss decomposition of C = A ⊗ B
// under Thm. 3's hypotheses: both factors undirected and loop-free, and
// every edge of B participating in at most one triangle (Δ_B ≤ 1). Then
//
//	(p,q) ∈ T^(κ)_C  ⇔  (i,j) ∈ T^(κ)_A and (k,l) ∈ T^(3)_B,
//
// so the trussness of every edge of C is read off the decomposition of A
// and the 0/1 matrix Δ_B.
type ProductTruss struct {
	p      *Product
	trussA *truss.Decomposition
	deltaB *sparse.Matrix
}

// TrussDecomposition validates Thm. 3's hypotheses and returns the
// implicit truss decomposition of C.
func TrussDecomposition(p *Product) (*ProductTruss, error) {
	if !p.A.IsSymmetric() || !p.B.IsSymmetric() {
		return nil, errors.New("kron: Thm. 3 requires undirected factors")
	}
	if p.A.HasAnyLoop() || p.B.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 3 requires loop-free factors")
	}
	sb := p.sb.get()
	if sb.Delta.MaxVal() > 1 {
		return nil, errors.New("kron: Thm. 3 requires Δ_B ≤ 1 (every edge of B in at most one triangle)")
	}
	return &ProductTruss{
		p:      p,
		trussA: truss.Decompose(p.A),
		deltaB: sb.Delta,
	}, nil
}

// EdgeTruss returns the trussness of product edge (u, v): the largest κ
// such that (u, v) lies in a κ-truss of C. It returns 0 if (u, v) is not
// an edge of C, and 2 for edges in no triangle of C.
func (t *ProductTruss) EdgeTruss(u, v int64) int {
	if !t.p.HasEdge(u, v) {
		return 0
	}
	i, k := t.p.Factors(u)
	j, l := t.p.Factors(v)
	if t.deltaB.At(int(k), int(l)) == 0 {
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
	if t.deltaB.NNZ() == 0 {
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
	// Undirected triangle-edge count of B: nnz(Δ_B)/2 since Δ_B is
	// symmetric with zero diagonal and entries exactly 1 here.
	b3 := t.deltaB.NNZ() / 2
	for k := 3; k <= t.trussA.MaxK; k++ {
		out[k] = int64(len(t.trussA.KTrussEdges(k))) * 2 * b3
	}
	return out
}
