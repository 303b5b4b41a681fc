package gen

import (
	"sort"

	"kronvalid/internal/graph"
	"kronvalid/internal/model"
)

// ChungLu samples an undirected graph with independent edges where
// P(u ~ v) = min(1, d_u·d_v / Σd): the canonical edge-independent null
// model with a prescribed expected degree sequence. Rem. 1 attributes the
// triangle poverty of stochastic Kronecker generators exactly to this
// independence, so ChungLu with the *product's own degree sequence* is
// the paper's implied null.
//
// The sampler materializes the sharded Miller–Hagberg core in
// internal/model: vertices are sorted by weight, the streamed core emits
// canonical arcs in the weight-sorted index space, and the arcs are
// mapped back through the sort order — O(n + m) in expectation, and
// byte-identical to the sharded pipeline for every worker count.
func ChungLu(degrees []int64, seed uint64) *graph.Graph {
	n := len(degrees)
	order := chungLuOrder(degrees)
	weights := make([]float64, n)
	for i, v := range order {
		weights[i] = float64(degrees[v])
	}
	mg, err := model.NewChungLu(weights, seed, 0)
	if err != nil {
		panic("gen: " + err.Error())
	}
	g, err := materialize(mg, MaxExplicitArcs, order)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return g
}

// chungLuOrder returns vertex indices sorted by decreasing weight
// (ties by increasing index) — the bucket order the streamed core
// requires.
func chungLuOrder(degrees []int64) []int32 {
	order := make([]int32, len(degrees))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if degrees[order[a]] != degrees[order[b]] {
			return degrees[order[a]] > degrees[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// ExpectedTrianglesChungLu returns the analytic expected triangle count
// of the Chung-Lu model with the given degree sequence, the standard
// third-moment estimate E[τ] ≈ (Σd²/Σd)³/6 (exact as n → ∞ when no
// probability saturates). Edge-independent models keep at most about this
// many triangles regardless of how the degrees were produced — the
// quantitative content of Rem. 1.
func ExpectedTrianglesChungLu(degrees []int64) float64 {
	var s1, s2 float64
	for _, d := range degrees {
		s1 += float64(d)
		s2 += float64(d) * float64(d)
	}
	if s1 == 0 {
		return 0
	}
	r := s2 / s1
	return r * r * r / 6
}
