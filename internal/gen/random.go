package gen

import (
	"fmt"
	"math"

	"kronvalid/internal/graph"
	"kronvalid/internal/model"
	"kronvalid/internal/rng"
)

// collectModel materializes a streamed model as an explicit undirected
// factor graph: the legacy constructors below are thin adapters over the
// communication-free sharded cores in internal/model, so the explicit
// and streamed paths can never drift apart.
func collectModel(g model.Generator, err error) (*graph.Graph, error) {
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n > int64(^uint32(0)>>1) {
		return nil, fmt.Errorf("gen: model with %d vertices too large for an explicit int32 graph", n)
	}
	arcs := model.Collect(g)
	edges := make([]graph.Edge, len(arcs))
	for i, a := range arcs {
		edges[i] = graph.Edge{U: int32(a.U), V: int32(a.V)}
	}
	return graph.FromEdges(int(n), edges, true), nil
}

// fromModel is collectModel for the panicking legacy constructors,
// whose contract (like BarabasiAlbert's) is to panic on invalid
// arguments. Error-returning callers — the spec boundary — use the
// *Err variants instead.
func fromModel(g model.Generator, err error) *graph.Graph {
	out, err := collectModel(g, err)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return out
}

// ErdosRenyi returns G(n, p): each unordered pair is an edge
// independently with probability p. It adapts the sharded streaming
// core, which skips geometrically through the pair index space —
// O(expected edges), not the O(n²) Bernoulli sweep of the seed
// implementation. Out-of-range p keeps the seed implementation's
// behavior: it acts as its clamp into [0, 1] (NaN as 0).
func ErdosRenyi(n int, p float64, seed uint64) *graph.Graph {
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return fromModel(model.NewErdosRenyi(int64(n), p, seed, 0))
}

// GNM returns G(n, m): exactly m distinct unordered pairs, uniform up
// to the deterministic binomial edge-count splitting of the streamed
// core. It panics on invalid arguments; spec-boundary callers use
// GNMErr.
func GNM(n int, m int64, seed uint64) *graph.Graph {
	return fromModel(model.NewGnm(int64(n), m, seed, 0))
}

// GNMErr is GNM with an error return, for callers handling
// user-supplied parameters (the spec grammar).
func GNMErr(n int, m int64, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewGnm(int64(n), m, seed, 0))
}

// smallSet is the reusable membership scratch for per-vertex target
// dedup in the preferential-attachment generators: attachment counts m
// are tiny (single digits), where a linear scan over a reused slice
// beats a freshly allocated map by a wide margin.
type smallSet []int32

func (s smallSet) contains(w int32) bool {
	for _, x := range s {
		if x == w {
			return true
		}
	}
	return false
}

// BarabasiAlbert returns the preferential-attachment graph of [35]:
// each new vertex attaches up to m edges to existing vertices chosen
// with probability proportional to degree, over a star seed graph on
// m+1 vertices. It adapts the communication-free streamed core
// (model.BarabasiAlbert), which resolves every edge by retracing its
// per-position hash chain — the same graph the sharded pipeline emits,
// loop-free with a power-law degree tail. Duplicate draws are merged
// (not redrawn), so a vertex can carry slightly fewer than m edges.
func BarabasiAlbert(n, m int, seed uint64) *graph.Graph {
	if m < 1 || n < m+1 {
		panic("gen: BarabasiAlbert needs n > m >= 1")
	}
	return fromModel(model.NewBarabasiAlbert(int64(n), int64(m), 0, seed, 0))
}

// BarabasiAlbertErr is BarabasiAlbert with an error return, for callers
// handling user-supplied parameters (the spec grammar): the streamed
// core's range caps surface as errors, never panics.
func BarabasiAlbertErr(n, m int, seed uint64) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert needs n > m >= 1 (have n=%d, m=%d)", n, m)
	}
	return collectModel(model.NewBarabasiAlbert(int64(n), int64(m), 0, seed, 0))
}

// RGG2D returns the random geometric graph on the unit square: n
// uniform points, an edge for every pair at distance <= r. It adapts
// the streamed cell-grid core; spec-boundary callers get errors, not
// panics.
func RGG2D(n int64, r float64, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewRGG(n, r, 2, seed, 0))
}

// RGG3D is RGG2D on the unit cube.
func RGG3D(n int64, r float64, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewRGG(n, r, 3, seed, 0))
}

// RHG returns the random hyperbolic graph: n points in a hyperbolic
// disk whose radius is solved for target average degree deg, radial
// density set by the power-law exponent gamma (> 2), an edge for every
// pair at hyperbolic distance within the disk radius. It adapts the
// streamed band/cell core; spec-boundary callers get errors, not
// panics.
func RHG(n int64, deg, gamma float64, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewRHG(n, deg, gamma, seed, 0))
}

// Grid2D returns the x×y lattice with each lattice edge kept
// independently with probability p; wrap adds the per-axis wraparound
// (torus) edges. It adapts the streamed geometric-skip core.
func Grid2D(x, y int64, p float64, wrap bool, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewGrid(x, y, 1, p, wrap, 2, seed, 0))
}

// Grid3D is Grid2D for the x×y×z lattice.
func Grid3D(x, y, z int64, p float64, wrap bool, seed uint64) (*graph.Graph, error) {
	return collectModel(model.NewGrid(x, y, z, p, wrap, 3, seed, 0))
}

// WebGraph is the offline stand-in for the paper's web-NotreDame input: a
// Holme–Kim style scale-free generator with triad closure. Each new
// vertex makes m attachments; the first is preferential, and each
// subsequent one closes a triangle with probability pt (attaching to a
// random neighbor of the previous target), otherwise attaches
// preferentially. High pt yields the heavy clustering (millions of
// triangles at web scale) that the paper's experiment relies on.
func WebGraph(n, m int, pt float64, seed uint64) *graph.Graph {
	if m < 1 || n < m+1 {
		panic("gen: WebGraph needs n > m >= 1")
	}
	g := rng.New(seed)
	var targets []int32
	adj := make([][]int32, n)
	var edges []graph.Edge
	addEdge := func(u, v int32) {
		edges = append(edges, graph.Edge{U: u, V: v})
		targets = append(targets, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := 1; v <= m; v++ {
		addEdge(0, int32(v))
	}
	order := make(smallSet, 0, m)
	for v := m + 1; v < n; v++ {
		order = order[:0]
		var prev int32 = -1
		for len(order) < m {
			var w int32 = -1
			if prev >= 0 && g.Float64() < pt && len(adj[prev]) > 0 {
				// Triad closure: a random neighbor of the previous target.
				w = adj[prev][g.Intn(len(adj[prev]))]
			}
			if w < 0 || w == int32(v) || order.contains(w) {
				w = targets[g.Intn(len(targets))]
			}
			if w == int32(v) || order.contains(w) {
				continue
			}
			order = append(order, w)
			prev = w
		}
		for _, w := range order {
			addEdge(int32(v), w)
		}
	}
	return graph.FromEdges(n, edges, true)
}

// RMAT returns a stochastic Kronecker (R-MAT [4]) graph: 2^scale
// vertices, approximately edges undirected edges sampled with quadrant
// probabilities (a, b, c, d), a+b+c+d = 1. Duplicates are merged and self
// loops dropped, so the realized edge count can be slightly lower. This is
// the Rem. 1 baseline: edge independence makes triangles scarce. It
// adapts the sharded streaming core (per-u-subtree multinomial edge
// splitting).
func RMAT(scale int, edges int64, a, b, c, d float64, seed uint64) *graph.Graph {
	if scale < 1 || scale > 30 {
		panic("gen: RMAT scale out of range [1,30]")
	}
	if a+b+c+d <= 0 {
		panic("gen: RMAT probabilities must be positive")
	}
	return fromModel(model.NewRMAT(scale, edges, a, b, c, d, seed, 0))
}

// MaxExplicitRMATEdges bounds the edge budget of an *explicit* R-MAT
// factor graph: the streamed model itself holds only O(scale) state per
// chunk, but this path collects every arc into an in-memory adjacency,
// so an unbounded budget reachable from a spec string must be a spec
// error, not an allocation blow-up.
const MaxExplicitRMATEdges = int64(1) << 28

// RMATErr is RMAT with an error return, for callers handling
// user-supplied parameters (the spec grammar).
func RMATErr(scale int, edges int64, a, b, c, d float64, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range [1,30] for an explicit graph", scale)
	}
	if edges > MaxExplicitRMATEdges {
		return nil, fmt.Errorf("gen: RMAT edge budget %d exceeds the explicit-graph cap %d; use the streamed model layer for larger budgets",
			edges, MaxExplicitRMATEdges)
	}
	return collectModel(model.NewRMAT(scale, edges, a, b, c, d, seed, 0))
}

// Graph500RMAT returns an R-MAT graph with the Graph500 benchmark
// parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) and edge factor 16.
func Graph500RMAT(scale int, seed uint64) *graph.Graph {
	return RMAT(scale, 16<<uint(scale), 0.57, 0.19, 0.19, 0.05, seed)
}
