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
	st.HadSquare = arcMatrix(g, res.EdgeDelta, func(i, j int32, dij int64) int64 {
		if i == j {
			return sr[i]
		}
		return dij + s[i] + s[j]
	})
	st.DiagCube = st.HadSquare.RowSums()
	st.loopRows, st.loopCols = sparse.New(n, n), sparse.New(n, n)
	if st.hasLoops() {
		st.loopRows = arcMatrix(g, res.EdgeDelta, func(i, _ int32, _ int64) int64 { return s[i] })
		st.loopCols = arcMatrix(g, res.EdgeDelta, func(_, j int32, _ int64) int64 { return s[j] })
	}
	st.diagGDG = st.loopCols.RowSums()
	return st
}

// arcMatrix returns the matrix holding val(i, j, Δ_ij) at every arc (i, j)
// of g, zeros dropped. Δ_ij is read by position, not searched: each row of
// g is walked against the same row of delta, whose columns are a subset
// of g's.
func arcMatrix(g *graph.Graph, delta *sparse.Matrix, val func(i, j int32, dij int64) int64) *sparse.Matrix {
	n := g.NumVertices()
	rowPtr := make([]int64, n+1)
	colIdx, vals := make([]int32, 0, g.NumArcs()), make([]int64, 0, g.NumArcs())
	for i := int32(0); int(i) < n; i++ {
		dc, dv := delta.Row(int(i))
		k := 0
		for _, j := range g.Neighbors(i) {
			var dij int64
			if k < len(dc) && dc[k] == j {
				dij = dv[k]
				k++
			}
			if v := val(i, j, dij); v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = int64(len(colIdx))
	}
	return sparse.NewCSR(n, n, rowPtr, colIdx, vals)
}

func (s *FactorTriangleStats) hasLoops() bool { return s.loopPart.NNZ() != 0 }

// allLoops reports whether every factor has a loop: D_C = ⊗D_i is
// nonzero, and the loop terms of the expansions present, only then.
func allLoops(stats []*FactorTriangleStats) bool {
	for _, st := range stats {
		if !st.hasLoops() {
			return false
		}
	}
	return true
}

// vecTerm is the term coef·⊗_i pick(stats_i).
func vecTerm(coef int64, stats []*FactorTriangleStats, pick func(*FactorTriangleStats) []int64) VecTerm {
	t := VecTerm{Coef: coef, Vecs: make([][]int64, len(stats))}
	for i, st := range stats {
		t.Vecs[i] = pick(st)
	}
	return t
}

// matTerm is the term coef·⊗_i pick(stats_i).
func matTerm(coef int64, stats []*FactorTriangleStats, pick func(*FactorTriangleStats) *sparse.Matrix) MatTerm {
	t := MatTerm{Coef: coef, Mats: make([]*sparse.Matrix, len(stats))}
	for i, st := range stats {
		t.Mats[i] = pick(st)
	}
	return t
}

// VertexParticipation returns t_C, the triangle participation of every
// vertex of C, as a lazy Kronecker expansion. It handles every self-loop
// regime with the general §III.B expansion, each term a k-fold product of
// per-factor diagonals (written here for A ⊗ B)
//
//	t_C = ½[ diag(A³)⊗diag(B³) - 2·diag(A²D_A)⊗diag(B²D_B)
//	        - diag(A D_A A)⊗diag(B D_B B) + 2·diag(D_A)⊗diag(D_B) ],
//
// whose loop terms vanish unless every factor has a loop. For A ⊗ B it
// reduces to Thm. 1 (t_C = 2 t_A ⊗ t_B) when neither factor has loops
// and to Cor. 1 (t_C = t_A ⊗ diag(B³)) when only B does. All factors
// must be undirected.
func VertexParticipation(p *Product) (*KronVecSum, error) {
	stats, err := p.FactorStats()
	if err != nil {
		return nil, err
	}
	sum := &KronVecSum{Den: 2, Terms: []VecTerm{
		vecTerm(1, stats, func(s *FactorTriangleStats) []int64 { return s.DiagCube }),
	}}
	if allLoops(stats) {
		sum.Terms = append(sum.Terms,
			vecTerm(-2, stats, func(s *FactorTriangleStats) []int64 { return s.diagSqD }),
			vecTerm(-1, stats, func(s *FactorTriangleStats) []int64 { return s.diagGDG }),
			vecTerm(2, stats, func(s *FactorTriangleStats) []int64 { return s.loopDiag }),
		)
	}
	return sum, nil
}

// EdgeParticipation returns Δ_C, the triangle participation of every edge
// of C, as a lazy Kronecker expansion, using the general §III.C expansion
// (each term a k-fold product; written here for A ⊗ B)
//
//	Δ_C = (A∘A²)⊗(B∘B²) - (D_A A)⊗(D_B B) - (A D_A)⊗(B D_B)
//	      + 2·D_A⊗D_B - (D_A∘A²)⊗(D_B∘B²),
//
// which reduces to Thm. 2 (Δ_C = Δ_A ⊗ Δ_B) with loop-free factors and to
// Cor. 2 (Δ_C = Δ_A ⊗ (B∘B²)) when only B has loops.
func EdgeParticipation(p *Product) (*KronMatSum, error) {
	stats, err := p.FactorStats()
	if err != nil {
		return nil, err
	}
	sum := &KronMatSum{Terms: []MatTerm{
		matTerm(1, stats, func(s *FactorTriangleStats) *sparse.Matrix { return s.HadSquare }),
	}}
	if allLoops(stats) {
		sum.Terms = append(sum.Terms,
			matTerm(-1, stats, func(s *FactorTriangleStats) *sparse.Matrix { return s.loopRows }),
			matTerm(-1, stats, func(s *FactorTriangleStats) *sparse.Matrix { return s.loopCols }),
			matTerm(2, stats, func(s *FactorTriangleStats) *sparse.Matrix { return s.loopPart }),
			matTerm(-1, stats, func(s *FactorTriangleStats) *sparse.Matrix { return s.loopHadSq }),
		)
	}
	return sum, nil
}

// TriangleTotal returns τ(C) = Σ_p t_C(p) / 3, exactly, with overflow
// checking. With loop-free factors this specializes to the paper's
// τ(C) = 6^{k−1}·Π τ(F_i), 6·τ(A)·τ(B) for A ⊗ B.
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

// OutDegrees returns d^out_C = ⊗ d^out_i as a lazy Kronecker vector (row
// sums including self loops, §IV.B).
func OutDegrees(p *Product) *KronVecSum {
	t := VecTerm{Coef: 1}
	for _, f := range p.Factors {
		t.Vecs = append(t.Vecs, rawRowSums(f))
	}
	return &KronVecSum{Terms: []VecTerm{t}, Den: 1}
}

// InDegrees returns d^in_C = ⊗ d^in_i (column sums including self loops).
func InDegrees(p *Product) *KronVecSum {
	t := VecTerm{Coef: 1}
	for _, f := range p.Factors {
		t.Vecs = append(t.Vecs, f.ToSparse().ColSums())
	}
	return &KronVecSum{Terms: []VecTerm{t}, Den: 1}
}

func rawRowSums(g *graph.Graph) []int64 {
	out := make([]int64, g.NumVertices())
	for v := range out {
		out[v] = g.OutDegreeRaw(int32(v))
	}
	return out
}
