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
	a, b, err := p.pair("Thm. 6/7")
	if err != nil {
		return nil, err
	}
	if !a.IsLabeled() {
		return nil, errors.New("kron: Thm. 6/7 require a labeled left factor")
	}
	if a.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 6/7 require a loop-free left factor")
	}
	if !a.IsSymmetric() || !b.IsSymmetric() {
		return nil, errors.New("kron: Thm. 6/7 require undirected factors")
	}
	vertexA := census.LabeledVertexCensus(a)
	edgeA := census.LabeledEdgeCensus(a)

	sb := ComputeFactorStats(b)
	diagB3, hadB := sb.DiagCube, sb.HadSquare

	out := &LabeledStats{
		Vertex: make(map[census.LabelVertexType]*KronVecSum, len(vertexA)),
		Edge:   make(map[census.LabelEdgeType]*KronMatSum, len(edgeA)),
	}
	for ty, vec := range vertexA {
		out.Vertex[ty] = pairVec(vec, diagB3)
	}
	for ty, d := range edgeA {
		out.Edge[ty] = pairMat(p, d, hadB)
	}
	return out, nil
}
