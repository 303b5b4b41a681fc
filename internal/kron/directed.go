package kron

import (
	"errors"

	"kronvalid/internal/census"
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
// hypotheses: diag(A) = 0 and B undirected.
func DirectedCensus(p *Product) (*DirectedStats, error) {
	if p.A.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 4/5 require a loop-free left factor")
	}
	if !p.B.IsSymmetric() {
		return nil, errors.New("kron: Thm. 4/5 require an undirected right factor (B_d = O)")
	}
	censusA := census.DirectedVertexCensus(p.A)
	edgeA := census.DirectedEdgeCensus(p.A)

	sb := p.sb.get()
	diagB3, hadB := sb.DiagCube, sb.HadSquare

	out := &DirectedStats{
		Vertex: make(map[census.VertexType]*KronVecSum, census.NumVertexTypes),
		Edge:   make(map[census.EdgeType]*KronMatSum, census.NumEdgeTypes),
	}
	for _, ty := range census.AllVertexTypes() {
		out.Vertex[ty] = &KronVecSum{
			Terms: []VecTerm{{Coef: 1, U: censusA.Counts[ty], V: diagB3}},
			Den:   1,
			nB:    p.nB,
		}
	}
	for _, ty := range census.AllEdgeTypes() {
		out.Edge[ty] = &KronMatSum{
			Terms: []MatTerm{{Coef: 1, M: edgeA.Delta[ty], N: hadB}},
			nB:    p.nB, mB: p.nB,
		}
	}
	return out, nil
}

// ReciprocalDegree returns d_{C_r} = d_{A_r} ⊗ d_B (§IV.B): the number of
// reciprocal edges at each product vertex, assuming B undirected.
func ReciprocalDegree(p *Product) (*KronVecSum, error) {
	if !p.B.IsSymmetric() {
		return nil, errors.New("kron: reciprocal degree formula requires undirected B")
	}
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: rawRowSums(p.A.ReciprocalPart()), V: rawRowSums(p.B)}},
		Den:   1,
		nB:    p.nB,
	}, nil
}

// DirectedOutDegree returns d^out_{C_d} = d^out_{A_d} ⊗ d_B (§IV.B).
func DirectedOutDegree(p *Product) (*KronVecSum, error) {
	if !p.B.IsSymmetric() {
		return nil, errors.New("kron: directed degree formula requires undirected B")
	}
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: rawRowSums(p.A.DirectedPart()), V: rawRowSums(p.B)}},
		Den:   1,
		nB:    p.nB,
	}, nil
}

// DirectedInDegree returns d^in_{C_d} = d^in_{A_d} ⊗ d_B (§IV.B).
func DirectedInDegree(p *Product) (*KronVecSum, error) {
	if !p.B.IsSymmetric() {
		return nil, errors.New("kron: directed degree formula requires undirected B")
	}
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: rawRowSums(p.A.DirectedPart().Transpose()), V: rawRowSums(p.B)}},
		Den:   1,
		nB:    p.nB,
	}, nil
}
