package kronvalid_test

import (
	"context"
	"fmt"

	"kronvalid"
)

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

// ExampleKroneckerPower shows the k-fold ladder of exact counts.
func ExampleKroneckerPower() {
	b := kronvalid.Clique(3) // one triangle
	for k := 1; k <= 3; k++ {
		p, _ := kronvalid.KroneckerPower(b, k)
		tau, _ := kronvalid.MultiTriangleTotal(p)
		fmt.Println(k, tau) // 6^{k-1}
	}
	// Output:
	// 1 1
	// 2 6
	// 3 36
}

// ExampleProductTrussDecomposition builds a graph whose truss
// decomposition is known by construction (Thm. 3).
func ExampleProductTrussDecomposition() {
	a := kronvalid.Clique(5)                 // every edge trussness 5
	b := kronvalid.TriangleLimitedPA(20, 42) // Δ_B ≤ 1 by construction
	p := kronvalid.MustProduct(a, b)
	pt, _ := kronvalid.ProductTrussDecomposition(p)
	fmt.Println(pt.MaxK())
	// Output: 5
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
