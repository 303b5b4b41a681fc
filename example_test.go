package kronvalid_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"kronvalid"
)

// Example is the quickstart: a scale-free factor A, the implicit
// product C = A ⊗ A that nothing here materializes, its exact triangle
// count, and the exact count at any vertex in O(1), here the busiest.
// One vertex's formula value is confirmed the paper's §VI way, by
// counting the triangles of its egonet directly.
func Example() {
	a := kronvalid.WebGraph(1<<10, 4, 0.7, 42)
	tauA := kronvalid.CountTriangles(a).Total
	p := kronvalid.MustProduct(a, a)
	tau, _ := kronvalid.TriangleTotal(p)
	fmt.Println(p.NumVertices(), p.NumEdgesUndirected(), tau, tau == 6*tauA*tauA)

	t, _ := kronvalid.VertexParticipation(p)
	deg, hub := p.MaxDegree()
	fmt.Println(hub, deg, t.At(hub))
	v := p.NumVertices() / 2
	ego, err := kronvalid.VerifyEgonet(p, t, v, 1<<20)
	fmt.Println(v, ego.Degree, t.At(v), ego.LocalTriangles, err)

	// C's edge list streams from the factors in canonical order.
	n := 0
	p.EachArc(func(u, w int64) bool {
		fmt.Println(u, w)
		n++
		return n < 3
	})
	// Output:
	// 1048576 33292800 36842904 true
	// 0 12544 75272
	// 524288 896 3880 3880 <nil>
	// 0 1025
	// 0 1026
	// 0 1027
}

// ExampleTriangleTotal computes the exact triangle count of a product
// with ~4 billion times more triangles than either factor.
func ExampleTriangleTotal() {
	a := kronvalid.Clique(4) // τ(K4) = 4
	b := kronvalid.Clique(5) // τ(K5) = 10
	p := kronvalid.MustProduct(a, b)
	tau, _ := kronvalid.TriangleTotal(p)
	fmt.Println(tau) // 6·4·10
	// Output: 240
}

// ExampleVertexParticipation reads the per-vertex ground truth of Thm. 1.
func ExampleVertexParticipation() {
	a := kronvalid.Clique(4)
	b := kronvalid.Clique(5)
	p := kronvalid.MustProduct(a, b)
	t, _ := kronvalid.VertexParticipation(p)
	// Ex. 1(a): every vertex sits in ½(n+1-nA-nB)(n+4-2nA-2nB) triangles.
	fmt.Println(t.At(0), t.At(19))
	// Output: 36 36
}

// ExampleEdgeParticipation reads Δ_C at a specific product edge (Thm. 2).
func ExampleEdgeParticipation() {
	a := kronvalid.HubCycle(4) // Ex. 2's factor
	p := kronvalid.MustProduct(a, a)
	d, _ := kronvalid.EdgeParticipation(p)
	// A hub-hub edge of C participates in ΔA(hub)·ΔA(hub) = 2·2 triangles.
	hubArcA := int64(0*5 + 0) // vertex (hub, hub)
	otherEnd := int64(1*5 + 1)
	fmt.Println(d.At(hubArcA, otherEnd))
	// Output: 4
}

// ExampleProduct_EachArc streams the edge list of an implicit product.
func ExampleProduct_EachArc() {
	a := kronvalid.Path(2) // single edge 0-1
	p := kronvalid.MustProduct(a, a)
	p.EachArc(func(u, v int64) bool {
		fmt.Println(u, v)
		return true
	})
	// Output:
	// 0 3
	// 1 2
	// 2 1
	// 3 0
}

// ExampleKroneckerPower shows the k-fold ladder of exact counts, then
// reads one vertex of the largest power through its factor vertices.
func ExampleKroneckerPower() {
	b := kronvalid.Clique(3) // one triangle
	var p *kronvalid.Product
	for k := 1; k <= 3; k++ {
		p, _ = kronvalid.KroneckerPower(b, k)
		tau, _ := kronvalid.TriangleTotal(p)
		fmt.Println(k, tau) // 6^{k-1}
	}
	t, _ := kronvalid.VertexParticipation(p)
	v := p.NumVertices() / 3
	fmt.Println(v, p.FactorsOf(v), t.At(v))
	// Output:
	// 1 1
	// 2 6
	// 3 36
	// 9 [1 0 0] 4
}

// ExampleProductTrussDecomposition builds a graph whose truss
// decomposition is known by construction (Thm. 3).
func ExampleProductTrussDecomposition() {
	a := kronvalid.Clique(5)                 // every edge trussness 5
	b := kronvalid.TriangleLimitedPA(20, 42) // Δ_B ≤ 1 by construction
	p := kronvalid.MustProduct(a, b)
	pt, _ := kronvalid.ProductTrussDecomposition(p)

	// Peel the materialized product directly: every edge agrees.
	c, _ := p.Materialize(1000, 100000)
	direct := kronvalid.DecomposeTruss(c)
	mismatches := 0
	c.EachEdgeUndirected(func(u, v int32) bool {
		if pt.EdgeTruss(int64(u), int64(v)) != direct.EdgeTruss(u, v) {
			mismatches++
		}
		return true
	})
	fmt.Println(pt.MaxK(), c.NumEdgesUndirected(), mismatches)
	// Output: 5 500 0
}

// ExampleExtractEgonet spot-validates a formula the paper's §VI way.
func ExampleExtractEgonet() {
	a := kronvalid.Clique(4)
	p := kronvalid.MustProduct(a, a)
	ego, _ := kronvalid.ExtractEgonet(p, 0, 1000)
	fmt.Println(ego.Degree, ego.LocalTriangles)
	// Output: 9 18
}

// ExampleNewGenerator drives a random hyperbolic graph through the
// unified verbs: one spec string, then Count/Digest/Stream over its
// Source — the count and digest are fixed by the spec, never by the
// worker count.
func ExampleNewGenerator() {
	ctx := context.Background()
	g, _ := kronvalid.NewGenerator("rhg:n=500,d=6,gamma=2.7,seed=1")

	arcs, _ := kronvalid.Count(ctx, kronvalid.ModelSource(g, 4))
	digest, _ := kronvalid.Digest(ctx, kronvalid.ModelSource(g, 4))

	var sink kronvalid.CountingSink
	kronvalid.Stream(ctx, kronvalid.ModelSource(g, 8), &sink,
		kronvalid.WithWorkers(8))

	fmt.Println(arcs, digest, sink.N == arcs)
	// Output: 1593 89de51cc72ed531e true
}

// ExampleCount shows the exact-count fast path: G(n, m) declares its
// arc total, so Count returns without generating a single edge — and
// the streamed total agrees.
func ExampleCount() {
	ctx := context.Background()
	g, _ := kronvalid.NewGenerator("gnm:n=10000,m=60000,seed=7")
	arcs, _ := kronvalid.Count(ctx, kronvalid.ModelSource(g, 0))
	fmt.Println(arcs)
	// Output: 60000
}

// ExampleDirectedCensus reads Thm. 4/5's census of a directed product:
// a scale-free factor A with two in five edges reciprocal, times a
// looped clique B. Each of Fig. 4/5's 15 vertex and 15 edge types has
// an exact total, and the vertex types count every triangle of C's
// undirected skeleton three times.
func ExampleDirectedCensus() {
	base := kronvalid.WebGraph(400, 3, 0.6, 11)
	var arcs []kronvalid.Edge
	e := 0
	base.EachEdgeUndirected(func(u, v int32) bool {
		e++
		if e%5 == 4 {
			u, v = v, u
		}
		arcs = append(arcs, kronvalid.Edge{U: u, V: v})
		if e%5 < 2 {
			arcs = append(arcs, kronvalid.Edge{U: v, V: u})
		}
		return true
	})
	a := kronvalid.FromEdges(base.NumVertices(), arcs, false)
	b := kronvalid.Clique(8).WithAllLoops()
	stats, _ := kronvalid.DirectedCensus(kronvalid.MustProduct(a, b))

	ets := kronvalid.AllDirEdgeTypes()
	var sum int64
	for i, vt := range kronvalid.AllDirVertexTypes() {
		tv, _ := stats.Vertex[vt].Total()
		te, _ := stats.Edge[ets[i]].Total()
		fmt.Println(vt, tv, ets[i], te)
		sum += tv
	}
	tau, _ := kronvalid.TriangleTotal(kronvalid.MustProduct(a.Undirected(), b))
	fmt.Println(sum, sum == 3*tau)
	// Output:
	// ss+ 42496 +++ 42496
	// sso 37376 ++- 42496
	// su+ 51200 ++o 74752
	// suo 90112 +-+ 42496
	// su- 63488 +-- 56832
	// st+ 56832 +-o 51200
	// sto 51200 +o+ 63488
	// st- 42496 +o- 51200
	// uu+ 90112 +oo 90112
	// uuo 58368 o++ 51200
	// ut+ 51200 o+- 63488
	// uto 90112 o+o 90112
	// ut- 74752 o-+ 74752
	// tt+ 42496 o-o 90112
	// tto 31744 ooo 116736
	// 873984 true
}

// ExampleLabeledCensus reads Thm. 6/7's census of a product whose left
// factor is coloured v mod 3: C's vertices inherit A's colours, and
// every coloured triangle type has an exact count at every vertex. The
// rows are the centre colours, each over the other two colours' six
// multisets.
func ExampleLabeledCensus() {
	base := kronvalid.WebGraph(300, 3, 0.65, 23)
	labels := make([]int32, base.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	a := base.WithLabels(labels, 3)
	b := kronvalid.ErdosRenyi(12, 0.5, 24)
	p := kronvalid.MustProduct(a, b)
	stats, _ := kronvalid.LabeledCensus(p)

	var sum int64
	for q1 := int32(0); q1 < 3; q1++ {
		var row []int64
		for q2 := int32(0); q2 < 3; q2++ {
			for q3 := q2; q3 < 3; q3++ {
				total, _ := stats.Vertex[kronvalid.LabelVertexType{Q1: q1, Q2: q2, Q3: q3}].Total()
				row = append(row, total)
				sum += total
			}
		}
		fmt.Println(q1, row)
	}
	tau, _ := kronvalid.TriangleTotal(kronvalid.MustProduct(a.Unlabeled(), b))
	fmt.Println(sum, sum == 3*tau)

	// Rainbow triangles at one green vertex of C.
	v := p.Vertex(1, 0)
	rainbow := stats.Vertex[kronvalid.LabelVertexType{Q1: 1, Q2: 0, Q3: 2}]
	fmt.Println(v, p.Label(v), rainbow.At(v))
	// Output:
	// 0 [3240 7920 6768 4752 9072 2952]
	// 1 [3960 9504 9072 3024 8640 2736]
	// 2 [3384 9072 5904 4320 5472 1944]
	// 101736 true
	// 12 1 42
}

// ExampleToCSR materializes random models' graphs and checks each
// against its stream: the streamed Digest equals the CSRDigest of the
// CSR built from the same source.
func ExampleToCSR() {
	ctx := context.Background()
	for _, spec := range []string{"gnm:n=10000,m=50000,seed=42", "rmat:scale=12,edges=32768,seed=42"} {
		g, _ := kronvalid.NewGenerator(spec)
		src := kronvalid.ModelSource(g, 0)
		c, _ := kronvalid.ToCSR(ctx, src, kronvalid.WithWorkers(4))
		d, _ := kronvalid.Digest(ctx, src)
		deg, hub := c.MaxOutDegree()
		fmt.Println(src.Name(), c.NumArcs(), deg, hub, d, kronvalid.CSRDigest(c) == d)
	}
	// Output:
	// gnm:n=10000,m=50000,seed=42,chunks=64 50000 21 1139 a89c3099f0d17bd9 true
	// rmat:scale=12,edges=32768,a=0.57,b=0.19,c=0.19,d=0.05,seed=42,chunks=64 28646 590 0 e9f94623b1f18c0c true
}

// ExampleWriteShards splits C = A ⊗ B into four shards that any worker
// regenerates from the replicated factors alone. A MultiSink of only
// order-free sinks runs forked on the generating workers and joined in
// shard order; WriteShards then writes one file per shard and a
// manifest whose source rebuilds the stream.
func ExampleWriteShards() {
	ctx := context.Background()
	src, _ := kronvalid.ParseSource("kron(a=web:n=500,m=3,pt=0.7,seed=5;b=hubcycle:c=6)", 4)
	var count kronvalid.CountingSink
	var order kronvalid.DedupCheckSink
	n, err := kronvalid.Stream(ctx, src, kronvalid.MultiSink{&count, &order}, kronvalid.WithWorkers(4))
	fmt.Println(n, count.N, err)

	dir, _ := os.MkdirTemp("", "shards")
	defer os.RemoveAll(dir)
	m, _ := kronvalid.WriteShards(ctx, dir, src)
	for _, s := range m.Shards {
		fi, _ := os.Stat(filepath.Join(dir, s.File))
		fmt.Println(s.File, s.Arcs, fi.Size())
	}
	fmt.Println(m.Source)
	// Output:
	// 71568 71568 <nil>
	// shard-000.tsv 18216 137394
	// shard-001.tsv 17640 145431
	// shard-002.tsv 17856 162996
	// shard-003.tsv 17856 164985
	// kron(a=web:n=500,m=3,pt=0.7,seed=5;b=hubcycle:c=6)
}
