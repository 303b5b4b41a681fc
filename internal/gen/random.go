package gen

import (
	"fmt"
	"math"

	"kronvalid/internal/graph"
	"kronvalid/internal/model"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// maxExplicitArcs bounds the arcs of an explicit factor graph built from
// a streamed model. The models hold O(chunk) state however large the
// spec, but a factor is collected into an in-memory adjacency, so a
// size reachable from a spec string must be an error, not an allocation
// blow-up.
const maxExplicitArcs = int64(1) << 28

// FromModel materializes a streamed model as an explicit undirected
// factor graph. It is the only model→graph path: the Go constructors
// below, the root package's RGG/RHG/grid functions and every registry
// kind named by a factor spec go through it, so the explicit and
// streamed paths cannot drift apart and one size guard covers them all.
// It takes a constructor's (generator, error) pair so calls chain.
func FromModel(g model.Generator, err error) (*graph.Graph, error) {
	if err != nil {
		return nil, err
	}
	return materialize(g, maxExplicitArcs, nil)
}

// materialize collects g's canonical stream into a graph of at most
// limit arcs before symmetrization, relabeling vertices through relabel
// when it is non-nil. A size the generator declares (NumArcs, or the
// MaxArcs budget of a kind whose realized count is random) is refused
// before anything is allocated; otherwise collection stops as soon as
// the running count passes limit.
func materialize(g model.Generator, limit int64, relabel []int32) (*graph.Graph, error) {
	n := g.NumVertices()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("gen: %s has %d vertices, too many for an explicit int32 graph", g.Name(), n)
	}
	tooLarge := func(arcs string) error {
		return fmt.Errorf("gen: %s has %s arcs, over the %d-arc cap of an explicit graph; shrink it (rmat: pass edges=) or stream it with gengen",
			g.Name(), arcs, limit)
	}
	exact := g.NumArcs() // -1 when the count is random
	if exact > limit {
		return nil, tooLarge(fmt.Sprint(exact))
	}
	if b, ok := g.(interface{ MaxArcs() int64 }); ok && b.MaxArcs() > limit {
		return nil, tooLarge(fmt.Sprint("up to ", b.MaxArcs()))
	}
	edges := make([]graph.Edge, 0, max(exact, 0))
	buf := make([]stream.Arc, 0, stream.DefaultBatchSize)
	worker := g.NewWorker() // one worker across every chunk
	over := false
	for c := 0; c < g.Chunks() && !over; c++ {
		worker(c, buf, func(full []stream.Arc) []stream.Arc {
			if int64(len(edges)+len(full)) > limit {
				over = true
				return nil
			}
			for _, a := range full {
				u, v := int32(a.U), int32(a.V)
				if relabel != nil {
					u, v = relabel[u], relabel[v]
				}
				edges = append(edges, graph.Edge{U: u, V: v})
			}
			return full[:0]
		})
	}
	if over {
		return nil, tooLarge(fmt.Sprintf("more than %d", limit))
	}
	return graph.FromEdges(int(n), edges, true), nil
}

// mustFromModel is FromModel for the Go constructors below, whose
// documented contract is to panic on invalid arguments.
func mustFromModel(g model.Generator, err error) *graph.Graph {
	out, err := FromModel(g, err)
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
	return mustFromModel(model.NewErdosRenyi(int64(n), p, seed, 0))
}

// GNM returns G(n, m): exactly m distinct unordered pairs, uniform up
// to the deterministic binomial edge-count splitting of the streamed
// core. It panics on invalid arguments.
func GNM(n int, m int64, seed uint64) *graph.Graph {
	return mustFromModel(model.NewGnm(int64(n), m, seed, 0))
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
	return mustFromModel(model.NewBarabasiAlbert(int64(n), int64(m), 0, seed, 0))
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
	return mustFromModel(model.NewRMAT(scale, edges, a, b, c, d, seed, 0))
}

// Graph500RMAT returns an R-MAT graph with the Graph500 benchmark
// parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) and edge factor 16.
func Graph500RMAT(scale int, seed uint64) *graph.Graph {
	return RMAT(scale, 16<<uint(scale), 0.57, 0.19, 0.19, 0.05, seed)
}
