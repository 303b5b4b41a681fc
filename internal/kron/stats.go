package kron

import (
	"errors"

	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

// FactorTriangleStats holds every per-factor quantity the Kronecker
// formulas consume. ComputeFactorStats is the only place they are derived;
// a Product computes one per factor on first use and every closed form
// reads it, which is the "inline with generation" workflow of the paper:
// ground truth for C costs one triangle count on each factor.
//
// The vectors and matrices are shared by every statistic built from them
// and must not be modified.
type FactorTriangleStats struct {
	G *graph.Graph
	// T is t_G: triangle participation per vertex of the loop-free
	// version (Def. 5).
	T []int64
	// Delta is Δ_G = (G-I∘G) ∘ (G-I∘G)² (Def. 6).
	Delta *sparse.Matrix
	// DiagCube is diag(G³) including self-loop walks, the quantity
	// appearing in Cor. 1, Thm. 4, and Thm. 6.
	DiagCube []int64
	// HadSquare is G ∘ G², the edge-side analog (Cor. 2, Thm. 5, Thm. 7).
	HadSquare *sparse.Matrix
	// Total is τ(G) of the loop-free version.
	Total int64
	// WedgeChecks records the cost of the combinatorial triangle pass,
	// which is the whole superlinear cost of these statistics.
	WedgeChecks int64

	// The loop terms of the general §III.B and §III.C expansions, all
	// zero for a loop-free factor. D = I∘G is the self-loop part of G.
	loopDiag  []int64        // diag(D), the loop indicator s
	diagSqD   []int64        // diag(G²D)
	diagGDG   []int64        // diag(G D G)
	loopPart  *sparse.Matrix // D
	loopRows  *sparse.Matrix // D G
	loopCols  *sparse.Matrix // G D
	loopHadSq *sparse.Matrix // D ∘ G²
}

// ComputeFactorStats runs the triangle engine once on g and reads every
// other quantity off its result and g's loop indicator s in three passes
// over the arcs. G² is never formed: for symmetric 0/1 G with raw degree r
// (row sum, loop included),
//
//	(G∘G²)_ij  = Δ_ij + s_i + s_j  (i ≠ j),   (G∘G²)_ii = s_i·r_i,
//	diag(G³)   = rowsums(G∘G²),
//	diag(G²D)_i = s_i·r_i,   diag(GDG)_i = Σ_{j∈N(i)} s_j,
//	D∘G² = diag(s_i·r_i),    DG, GD = the looped rows, columns of G,
//
// because a length-two walk i→k→j along an arc (i,j) either passes a
// common neighbor k ∉ {i,j} (counted by Δ) or waits on a loop at i or j.
// It panics if g is not symmetric.
func ComputeFactorStats(g *graph.Graph) *FactorTriangleStats {
	res := triangle.Count(g)
	n := g.NumVertices()
	s, sr := make([]int64, n), make([]int64, n) // s_i and s_i·r_i
	for v := range s {
		if g.LoopAt(int32(v)) {
			s[v], sr[v] = 1, g.OutDegreeRaw(int32(v))
		}
	}
	st := &FactorTriangleStats{
		G:           g,
		T:           res.PerVertex,
		Delta:       res.EdgeDelta,
		Total:       res.Total,
		WedgeChecks: res.WedgeChecks,
		loopDiag:    s,
		diagSqD:     sr,
		loopPart:    sparse.DiagMatrix(s),
		loopHadSq:   sparse.DiagMatrix(sr),
	}
	st.HadSquare = arcMatrix(g, func(i, j int32) int64 {
		if i == j {
			return sr[i]
		}
		return res.EdgeDelta.At(int(i), int(j)) + s[i] + s[j]
	})
	st.DiagCube = st.HadSquare.RowSums()
	st.loopRows = arcMatrix(g, func(i, _ int32) int64 { return s[i] })
	st.loopCols = arcMatrix(g, func(_, j int32) int64 { return s[j] })
	st.diagGDG = st.loopCols.RowSums()
	return st
}

// arcMatrix returns the matrix holding val(i, j) at every arc (i, j) of g,
// zeros dropped.
func arcMatrix(g *graph.Graph, val func(i, j int32) int64) *sparse.Matrix {
	n := g.NumVertices()
	rowPtr := make([]int64, n+1)
	var colIdx []int32
	var vals []int64
	for i := int32(0); int(i) < n; i++ {
		for _, j := range g.Neighbors(i) {
			if v := val(i, j); v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = int64(len(colIdx))
	}
	return sparse.NewCSR(n, n, rowPtr, colIdx, vals)
}

func (s *FactorTriangleStats) hasLoops() bool { return s.loopPart.NNZ() != 0 }

func requireUndirected(p *Product) error {
	if !p.A.IsSymmetric() || !p.B.IsSymmetric() {
		return errors.New("kron: formula requires undirected factors")
	}
	return nil
}

// VertexParticipation returns t_C, the triangle participation of every
// vertex of C = A ⊗ B, as a lazy Kronecker expansion. It handles all
// three self-loop regimes with the general §III.B expansion
//
//	t_C = ½[ diag(A³)⊗diag(B³) - 2·diag(A²D_A)⊗diag(B²D_B)
//	        - diag(A D_A A)⊗diag(B D_B B) + 2·diag(D_A)⊗diag(D_B) ],
//
// which reduces to Thm. 1 (t_C = 2 t_A ⊗ t_B) when neither factor has
// loops and to Cor. 1 (t_C = t_A ⊗ diag(B³)) when only B does. Both
// factors must be undirected.
func VertexParticipation(p *Product) (*KronVecSum, error) {
	sa, sb, err := p.FactorStats()
	if err != nil {
		return nil, err
	}
	sum := &KronVecSum{Den: 2, nB: p.nB, Terms: []VecTerm{{Coef: 1, U: sa.DiagCube, V: sb.DiagCube}}}
	if sa.hasLoops() && sb.hasLoops() {
		sum.Terms = append(sum.Terms,
			VecTerm{Coef: -2, U: sa.diagSqD, V: sb.diagSqD},
			VecTerm{Coef: -1, U: sa.diagGDG, V: sb.diagGDG},
			VecTerm{Coef: 2, U: sa.loopDiag, V: sb.loopDiag},
		)
	}
	return sum, nil
}

// VertexParticipationNoLoops is Thm. 1 specialized: t_C = 2·t_A ⊗ t_B.
// Errors unless both factors are loop-free and undirected.
func VertexParticipationNoLoops(p *Product, sa, sb *FactorTriangleStats) (*KronVecSum, error) {
	if err := requireUndirected(p); err != nil {
		return nil, err
	}
	if p.A.HasAnyLoop() || p.B.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 1 requires loop-free factors")
	}
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 2, U: sa.T, V: sb.T}},
		Den:   1,
		nB:    p.nB,
	}, nil
}

// VertexParticipationLoopsInB is Cor. 1 specialized:
// t_C = t_A ⊗ diag(B³), for loop-free A and arbitrary undirected B.
func VertexParticipationLoopsInB(p *Product, sa, sb *FactorTriangleStats) (*KronVecSum, error) {
	if err := requireUndirected(p); err != nil {
		return nil, err
	}
	if p.A.HasAnyLoop() {
		return nil, errors.New("kron: Cor. 1 requires a loop-free left factor")
	}
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: sa.T, V: sb.DiagCube}},
		Den:   1,
		nB:    p.nB,
	}, nil
}

// EdgeParticipation returns Δ_C, the triangle participation of every edge
// of C, as a lazy Kronecker expansion, using the general §III.C expansion
//
//	Δ_C = (A∘A²)⊗(B∘B²) - (D_A A)⊗(D_B B) - (A D_A)⊗(B D_B)
//	      + 2·D_A⊗D_B - (D_A∘A²)⊗(D_B∘B²),
//
// which reduces to Thm. 2 (Δ_C = Δ_A ⊗ Δ_B) with loop-free factors and to
// Cor. 2 (Δ_C = Δ_A ⊗ (B∘B²)) when only B has loops.
func EdgeParticipation(p *Product) (*KronMatSum, error) {
	sa, sb, err := p.FactorStats()
	if err != nil {
		return nil, err
	}
	sum := &KronMatSum{nB: p.nB, mB: p.nB, Terms: []MatTerm{{Coef: 1, M: sa.HadSquare, N: sb.HadSquare}}}
	if sa.hasLoops() && sb.hasLoops() {
		sum.Terms = append(sum.Terms,
			MatTerm{Coef: -1, M: sa.loopRows, N: sb.loopRows},
			MatTerm{Coef: -1, M: sa.loopCols, N: sb.loopCols},
			MatTerm{Coef: 2, M: sa.loopPart, N: sb.loopPart},
			MatTerm{Coef: -1, M: sa.loopHadSq, N: sb.loopHadSq},
		)
	}
	return sum, nil
}

// EdgeParticipationNoLoops is Thm. 2 specialized: Δ_C = Δ_A ⊗ Δ_B.
func EdgeParticipationNoLoops(p *Product, sa, sb *FactorTriangleStats) (*KronMatSum, error) {
	if err := requireUndirected(p); err != nil {
		return nil, err
	}
	if p.A.HasAnyLoop() || p.B.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 2 requires loop-free factors")
	}
	return &KronMatSum{
		Terms: []MatTerm{{Coef: 1, M: sa.Delta, N: sb.Delta}},
		nB:    p.nB, mB: p.nB,
	}, nil
}

// EdgeParticipationLoopsInB is Cor. 2 specialized:
// Δ_C = Δ_A ⊗ (B ∘ B²), for loop-free A.
func EdgeParticipationLoopsInB(p *Product, sa, sb *FactorTriangleStats) (*KronMatSum, error) {
	if err := requireUndirected(p); err != nil {
		return nil, err
	}
	if p.A.HasAnyLoop() {
		return nil, errors.New("kron: Cor. 2 requires a loop-free left factor")
	}
	return &KronMatSum{
		Terms: []MatTerm{{Coef: 1, M: sa.Delta, N: sb.HadSquare}},
		nB:    p.nB, mB: p.nB,
	}, nil
}

// TriangleTotal returns τ(C) = Σ_p t_C(p) / 3, exactly, with overflow
// checking. With loop-free factors this specializes to the paper's
// τ(C) = 6·τ(A)·τ(B).
func TriangleTotal(p *Product) (int64, error) {
	tc, err := VertexParticipation(p)
	if err != nil {
		return 0, err
	}
	total, err := tc.Total()
	if err != nil {
		return 0, err
	}
	if total%3 != 0 {
		return 0, errors.New("kron: vertex participation total not divisible by 3")
	}
	return total / 3, nil
}

// OutDegrees returns d^out_C = d^out_A ⊗ d^out_B as a lazy Kronecker
// vector (row sums including self loops, §IV.B).
func OutDegrees(p *Product) *KronVecSum {
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: rawRowSums(p.A), V: rawRowSums(p.B)}},
		Den:   1,
		nB:    p.nB,
	}
}

// InDegrees returns d^in_C = d^in_A ⊗ d^in_B (column sums including self
// loops).
func InDegrees(p *Product) *KronVecSum {
	return &KronVecSum{
		Terms: []VecTerm{{Coef: 1, U: p.A.ToSparse().ColSums(), V: p.B.ToSparse().ColSums()}},
		Den:   1,
		nB:    p.nB,
	}
}

func rawRowSums(g *graph.Graph) []int64 {
	out := make([]int64, g.NumVertices())
	for v := range out {
		out[v] = g.OutDegreeRaw(int32(v))
	}
	return out
}
