package kron

import (
	"errors"

	"kronvalid/internal/census"
)

// LabeledStats holds the Kronecker-derived labeled triangle census of
// C = A ⊗ B under Thm. 6 and Thm. 7: A vertex-labeled, undirected,
// loop-free; B unlabeled, undirected, possibly with self loops. C inherits
// labels from A: f_C(p) = f_A(i(p)).
type LabeledStats struct {
	Vertex map[census.LabelVertexType]*KronVecSum
	Edge   map[census.LabelEdgeType]*KronMatSum
}

// LabeledCensus computes the full labeled census of the product from the
// factor census (Thm. 6, Thm. 7).
func LabeledCensus(p *Product) (*LabeledStats, error) {
	if !p.A.IsLabeled() {
		return nil, errors.New("kron: Thm. 6/7 require a labeled left factor")
	}
	if p.A.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 6/7 require a loop-free left factor")
	}
	if !p.A.IsSymmetric() || !p.B.IsSymmetric() {
		return nil, errors.New("kron: Thm. 6/7 require undirected factors")
	}
	vertexA := census.LabeledVertexCensus(p.A)
	edgeA := census.LabeledEdgeCensus(p.A)

	sb := p.sb.get()
	diagB3, hadB := sb.DiagCube, sb.HadSquare

	out := &LabeledStats{
		Vertex: make(map[census.LabelVertexType]*KronVecSum, len(vertexA)),
		Edge:   make(map[census.LabelEdgeType]*KronMatSum, len(edgeA)),
	}
	for ty, vec := range vertexA {
		out.Vertex[ty] = &KronVecSum{
			Terms: []VecTerm{{Coef: 1, U: vec, V: diagB3}},
			Den:   1,
			nB:    p.nB,
		}
	}
	for ty, mat := range edgeA {
		out.Edge[ty] = &KronMatSum{
			Terms: []MatTerm{{Coef: 1, M: mat, N: hadB}},
			nB:    p.nB, mB: p.nB,
		}
	}
	return out, nil
}
