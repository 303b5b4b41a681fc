package triangle_test

import (
	"fmt"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

// oracleCases are the graphs Count is checked against the retained
// engine on: random graphs with and without loops, the skewed and the
// dense extremes, graphs with nothing or little to count, and the
// kron-truth benchmark's two web factors.
func oracleCases() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{
		"edgeless":        graph.FromEdges(10, nil, true),
		"empty":           graph.FromEdges(0, nil, true),
		"star":            gen.Star(1000),
		"star+loops":      gen.Star(300).WithAllLoops(),
		"hubcycle":        gen.HubCycle(500),
		"clique12":        gen.Clique(12),
		"clique9+loops":   gen.CliqueWithLoops(9),
		"web-1000":        gen.WebGraph(16384, 4, 0.7, 1000),
		"web-1001":        gen.WebGraph(16384, 4, 0.7, 1001),
		"one-loop-only":   graph.FromEdges(3, []graph.Edge{{U: 1, V: 1}}, true),
		"triangle+single": graph.FromEdges(7, []graph.Edge{{U: 2, V: 4}, {U: 4, V: 6}, {U: 6, V: 2}, {U: 3, V: 3}}, true),
	}
	g := rng.New(58)
	for trial := 0; trial < 12; trial++ {
		n := 3 + g.Intn(400)
		cases[fmt.Sprintf("random-%d", trial)] = triangle.RandomUndirected(g, n, 2+float64(g.Intn(12)), trial%2 == 0)
	}
	// Isolated vertices: a dense core on the first 40 of 400 vertices.
	core := triangle.RandomUndirected(g, 40, 12, true).Arcs()
	cases["isolated"] = graph.FromEdges(400, core, true)
	return cases
}

// TestCountMatchesOracle: the slot engine returns exactly what the
// engine it replaced returns, wedge checks included, whatever the
// scheduling (the CI race step runs it at -cpu 1,2,4), with Δ aligned
// with the arcs of the input, loops included.
func TestCountMatchesOracle(t *testing.T) {
	for name, gr := range oracleCases() {
		got, want := triangle.Count(gr), triangle.CountOracle(gr)
		if !sparse.EqualVec(got.PerVertex, want.PerVertex) {
			t.Errorf("%s: PerVertex differs from the oracle", name)
		}
		if !triangle.OnArcs(gr, got.EdgeDelta, want.EdgeDelta) {
			t.Errorf("%s: EdgeDelta is not the oracle's on the arcs", name)
		}
		if got.Total != want.Total || got.WedgeChecks != want.WedgeChecks {
			t.Errorf("%s: (τ, wedge checks) = (%d, %d), oracle (%d, %d)",
				name, got.Total, got.WedgeChecks, want.Total, want.WedgeChecks)
		}
	}
}
