// Package gen provides the graph generators used as Kronecker factors and
// baselines: deterministic families (cliques, cycles, the paper's Ex. 2
// hub-cycle), random models (Erdős–Rényi, Barabási–Albert, a Holme–Kim
// style triad-closure web-graph stand-in), the paper's §III.D generators
// for factors with Δ ≤ 1, and the stochastic-Kronecker R-MAT baseline of
// Rem. 1.
//
// Every randomized generator takes an explicit uint64 seed and is fully
// deterministic given it.
package gen

import "kronvalid/internal/graph"

// Clique returns K_n: the complete loop-free graph on n vertices
// (Ex. 1's first building block).
func Clique(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n, 0)*max(n-1, 0)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return graph.FromEdges(n, edges, true)
}

// CliqueWithLoops returns J_n = 1·1^t: the complete graph with a self
// loop at every vertex (Ex. 1's second building block).
func CliqueWithLoops(n int) *graph.Graph {
	return Clique(n).WithAllLoops()
}

// Path returns the path 0-1-…-(n-1).
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32(v + 1)})
	}
	return graph.FromEdges(n, edges, true)
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + 1) % n)})
	}
	return graph.FromEdges(n, edges, true)
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
	}
	return graph.FromEdges(n, edges, true)
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *graph.Graph {
	edges := make([]graph.Edge, 0, max(a, 0)*max(b, 0))
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(a + v)})
		}
	}
	return graph.FromEdges(a+b, edges, true)
}

// HubCycle returns the paper's Ex. 2 graph generalized: a c-cycle
// (vertices 1..c) plus a hub (vertex 0) adjacent to every cycle vertex.
// HubCycle(4) is exactly Ex. 2: 5 vertices, 8 edges, 4 triangles; cycle
// edges participate in 1 triangle, hub edges in 2.
func HubCycle(c int) *graph.Graph {
	if c < 3 {
		panic("gen: HubCycle needs cycle length >= 3")
	}
	edges := make([]graph.Edge, 0, 2*c)
	for v := 1; v <= c; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
		next := v + 1
		if next > c {
			next = 1
		}
		edges = append(edges, graph.Edge{U: int32(v), V: int32(next)})
	}
	return graph.FromEdges(c+1, edges, true)
}

// Triangle returns K_3.
func Triangle() *graph.Graph { return Clique(3) }
