package kron

import (
	"errors"

	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
)

// FactorTriangleStats holds every per-factor quantity the Kronecker
// formulas consume. ComputeFactorStats is the only place they are derived,
// and it memoizes them on the graph: one object per graph, shared by every
// caller and every closed form of every Product over it, which is the
// "inline with generation" workflow of the paper: ground truth for C
// costs one triangle count on each factor.
//
// Each per-edge quantity is a per-edge statistic of G (package triangle):
// one value per arc of G, at the arc's position. The object, its vectors
// and every statistic built from them are shared, so all are read-only.
// Each statistic is kept once: for a loop-free G, HadSquare is Delta (the
// same slice) and the loop terms are nil.
type FactorTriangleStats struct {
	G *graph.Graph
	// T is t_G: triangle participation per vertex of the loop-free
	// version (Def. 5).
	T []int64
	// Delta is Δ_G = (G-I∘G) ∘ (G-I∘G)² (Def. 6) on G's arcs.
	Delta []int64
	// DiagCube is diag(G³) including self-loop walks, the quantity
	// appearing in Cor. 1, Thm. 4, and Thm. 6: the row sums of HadSquare.
	DiagCube []int64
	// HadSquare is G ∘ G² on G's arcs, the edge-side analog (Cor. 2,
	// Thm. 5, Thm. 7). For a loop-free G it is Delta, the same slice.
	HadSquare []int64
	// Total is τ(G) of the loop-free version.
	Total int64
	// WedgeChecks records the cost of the combinatorial triangle pass,
	// which is the whole superlinear cost of these statistics.
	WedgeChecks int64

	// The loop terms of the general §III.B and §III.C expansions. D = I∘G
	// is the self-loop part of G. All are nil for a loop-free factor,
	// whose loop terms are zero and enter no expansion.
	loopDiag  []int64 // diag(D), the loop indicator s
	diagSqD   []int64 // diag(G²D)
	diagGDG   []int64 // diag(G D G)
	loopPart  []int64 // D
	loopRows  []int64 // D G
	loopCols  []int64 // G D
	loopHadSq []int64 // D ∘ G²
}

// ComputeFactorStats returns g's statistics, computing them on the first
// call for g and returning the same object on every later one (from any
// goroutine; concurrent first calls wait for one count). The memo lives
// as long as g; a clone or transform of g is counted afresh. It panics if
// g is not symmetric.
func ComputeFactorStats(g *graph.Graph) *FactorTriangleStats {
	if !g.IsSymmetric() {
		panic("kron: ComputeFactorStats requires an undirected (symmetric) graph")
	}
	return graph.Derived(g, func() any { return computeFactorStats(g) }).(*FactorTriangleStats)
}

// computeFactorStats runs the triangle engine once on g. A loop-free g
// (D = 0) has G∘G² = Δ and diag(G³) = rowsums(Δ) = 2t, so HadSquare is
// Delta itself, DiagCube is read off T, and the loop terms stay nil.
// Otherwise every other quantity is read off the count and g's loop
// indicator s in one pass over the arcs. G² is never formed: for
// symmetric 0/1 G with raw degree r (row sum, loop included),
//
//	(G∘G²)_ij  = Δ_ij + s_i + s_j  (i ≠ j),   (G∘G²)_ii = s_i·r_i,
//	diag(G³)   = rowsums(G∘G²),
//	diag(G²D)_i = s_i·r_i,   diag(GDG)_i = Σ_{j∈N(i)} s_j,
//	D∘G² = diag(s_i·r_i),    DG, GD = the looped rows, columns of G,
//
// because a length-two walk i→k→j along an arc (i,j) either passes a
// common neighbor k ∉ {i,j} (counted by Δ) or waits on a loop at i or j.
func computeFactorStats(g *graph.Graph) *FactorTriangleStats {
	res := triangle.Count(g)
	n, m := g.NumVertices(), g.NumArcs()
	st := &FactorTriangleStats{
		G:           g,
		T:           res.PerVertex,
		Delta:       res.EdgeDelta,
		DiagCube:    make([]int64, n),
		Total:       res.Total,
		WedgeChecks: res.WedgeChecks,
	}
	if !g.HasAnyLoop() {
		st.HadSquare = res.EdgeDelta
		for v, t := range res.PerVertex {
			st.DiagCube[v] = 2 * t
		}
		return st
	}
	s, sr := make([]int64, n), make([]int64, n) // s_i and s_i·r_i
	for v := range s {
		if g.LoopAt(int32(v)) {
			s[v], sr[v] = 1, g.OutDegreeRaw(int32(v))
		}
	}
	st.HadSquare = make([]int64, m)
	st.loopDiag, st.diagSqD, st.diagGDG = s, sr, make([]int64, n)
	st.loopPart, st.loopRows, st.loopCols, st.loopHadSq =
		make([]int64, m), make([]int64, m), make([]int64, m), make([]int64, m)
	for i := int32(0); int(i) < n; i++ {
		base := g.ArcOffset(i)
		for k, j := range g.Neighbors(i) {
			a := base + int64(k)
			h := res.EdgeDelta[a] + s[i] + s[j]
			if i == j {
				h = sr[i]
				st.loopPart[a], st.loopHadSq[a] = 1, sr[i]
			}
			st.HadSquare[a] = h
			st.DiagCube[i] += h
			st.loopRows[a], st.loopCols[a] = s[i], s[j]
			st.diagGDG[i] += s[j]
		}
	}
	return st
}

func (s *FactorTriangleStats) hasLoops() bool { return s.loopPart != nil }

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

// factorTerm is the term coef·⊗_i pick(stats_i).
func factorTerm(coef int64, stats []*FactorTriangleStats, pick func(*FactorTriangleStats) []int64) Term {
	t := Term{Coef: coef, Vecs: make([][]int64, len(stats))}
	for i, st := range stats {
		t.Vecs[i] = pick(st)
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
	sum := &KronVecSum{Den: 2, Terms: []Term{
		factorTerm(1, stats, func(s *FactorTriangleStats) []int64 { return s.DiagCube }),
	}}
	if allLoops(stats) {
		sum.Terms = append(sum.Terms,
			factorTerm(-2, stats, func(s *FactorTriangleStats) []int64 { return s.diagSqD }),
			factorTerm(-1, stats, func(s *FactorTriangleStats) []int64 { return s.diagGDG }),
			factorTerm(2, stats, func(s *FactorTriangleStats) []int64 { return s.loopDiag }),
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
	sum := &KronMatSum{p: p, Terms: []Term{
		factorTerm(1, stats, func(s *FactorTriangleStats) []int64 { return s.HadSquare }),
	}}
	if allLoops(stats) {
		sum.Terms = append(sum.Terms,
			factorTerm(-1, stats, func(s *FactorTriangleStats) []int64 { return s.loopRows }),
			factorTerm(-1, stats, func(s *FactorTriangleStats) []int64 { return s.loopCols }),
			factorTerm(2, stats, func(s *FactorTriangleStats) []int64 { return s.loopPart }),
			factorTerm(-1, stats, func(s *FactorTriangleStats) []int64 { return s.loopHadSq }),
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
func OutDegrees(p *Product) *KronVecSum { return perFactor(p, rawRowSums) }

// InDegrees returns d^in_C = ⊗ d^in_i (column sums including self loops).
func InDegrees(p *Product) *KronVecSum { return perFactor(p, rawColSums) }

// perFactor is the one-term statistic ⊗_i f(F_i).
func perFactor(p *Product, f func(*graph.Graph) []int64) *KronVecSum {
	t := Term{Coef: 1}
	for _, g := range p.Factors {
		t.Vecs = append(t.Vecs, f(g))
	}
	return &KronVecSum{Terms: []Term{t}, Den: 1}
}

func rawRowSums(g *graph.Graph) []int64 {
	out := make([]int64, g.NumVertices())
	for v := range out {
		out[v] = g.OutDegreeRaw(int32(v))
	}
	return out
}

// rawColSums returns each vertex's in-degree, self loop included.
func rawColSums(g *graph.Graph) []int64 {
	out := make([]int64, g.NumVertices())
	g.EachArc(func(_, v int32) bool {
		out[v]++
		return true
	})
	return out
}
