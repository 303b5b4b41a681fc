package kron

import (
	"errors"

	"kronvalid/internal/census"
	"kronvalid/internal/graph"
)

// DirectedStats holds the Kronecker-derived directed triangle census of
// C = A ⊗ B under Thm. 4 and Thm. 5: A directed without self loops, B
// undirected (possibly with self loops). Every one of the 15 vertex types
// and 15 edge types of C is t^(τ)_A ⊗ diag(B³) and Δ^(τ)_A ⊗ (B∘B²)
// respectively.
type DirectedStats struct {
	Vertex map[census.VertexType]*KronVecSum
	Edge   map[census.EdgeType]*KronMatSum
}

// DirectedCensus computes the full directed census of the product from
// factor censuses (Thm. 4, Thm. 5). It validates the theorems'
// hypotheses: two factors, diag(A) = 0 and B undirected.
func DirectedCensus(p *Product) (*DirectedStats, error) {
	a, b, err := p.pair("Thm. 4/5")
	if err != nil {
		return nil, err
	}
	if a.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 4/5 require a loop-free left factor")
	}
	if !b.IsSymmetric() {
		return nil, errors.New("kron: Thm. 4/5 require an undirected right factor (B_d = O)")
	}
	censusA := census.DirectedVertexCensus(a)
	edgeA := census.DirectedEdgeCensus(a)

	sb := ComputeFactorStats(b)
	diagB3, hadB := sb.DiagCube, sb.HadSquare

	out := &DirectedStats{
		Vertex: make(map[census.VertexType]*KronVecSum, census.NumVertexTypes),
		Edge:   make(map[census.EdgeType]*KronMatSum, census.NumEdgeTypes),
	}
	for _, ty := range census.AllVertexTypes() {
		out.Vertex[ty] = pairVec(censusA.Counts[ty], diagB3)
	}
	for _, ty := range census.AllEdgeTypes() {
		out.Edge[ty] = pairMat(p, edgeA.Delta[ty], hadB)
	}
	return out, nil
}

// pairVec is the one-term statistic u ⊗ v.
func pairVec(u, v []int64) *KronVecSum {
	return &KronVecSum{Terms: []Term{{Coef: 1, Vecs: [][]int64{u, v}}}, Den: 1}
}

// pairMat is the one-term statistic M ⊗ N of the two-factor product p, M
// and N on the arcs of its factors.
func pairMat(p *Product, m, n []int64) *KronMatSum {
	return &KronMatSum{p: p, Terms: []Term{{Coef: 1, Vecs: [][]int64{m, n}}}}
}

// directedDegree returns part(A)'s raw row sums ⊗ d_B, the §IV.B
// directed degree formulas, which assume B undirected.
func directedDegree(p *Product, part func(a *graph.Graph) *graph.Graph) (*KronVecSum, error) {
	a, b, err := p.pair("§IV.B")
	if err != nil {
		return nil, err
	}
	if !b.IsSymmetric() {
		return nil, errors.New("kron: directed degree formula requires undirected B")
	}
	return pairVec(rawRowSums(part(a)), rawRowSums(b)), nil
}

// ReciprocalDegree returns d_{C_r} = d_{A_r} ⊗ d_B (§IV.B): the number of
// reciprocal edges at each product vertex, assuming B undirected.
func ReciprocalDegree(p *Product) (*KronVecSum, error) {
	return directedDegree(p, (*graph.Graph).ReciprocalPart)
}

// DirectedOutDegree returns d^out_{C_d} = d^out_{A_d} ⊗ d_B (§IV.B).
func DirectedOutDegree(p *Product) (*KronVecSum, error) {
	return directedDegree(p, (*graph.Graph).DirectedPart)
}

// DirectedInDegree returns d^in_{C_d} = d^in_{A_d} ⊗ d_B (§IV.B).
func DirectedInDegree(p *Product) (*KronVecSum, error) {
	return directedDegree(p, func(a *graph.Graph) *graph.Graph { return a.DirectedPart().Transpose() })
}
