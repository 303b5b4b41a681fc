package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"kronvalid/internal/census"
	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/sparse"
	"kronvalid/internal/stats"
	"kronvalid/internal/triangle"
	"kronvalid/internal/truss"
)

// expTable1 reproduces the §VI statistics table with the offline
// web-graph stand-in (E1) and the sublinear-ground-truth timing claim
// (E10).
func expTable1(n int, seed uint64) {
	start := time.Now()
	a := gen.WebGraph(n, 3, 0.75, seed)
	b := a.WithAllLoops()
	genDur := time.Since(start)

	// Ground truth for both products: one triangle pass per factor of each
	// (A for A⊗A; A and B for A⊗B), then lookups.
	pAA := kron.MustProduct(a, a)
	pAB := kron.MustProduct(a, b)
	start = time.Now()
	tAA, err := kron.TriangleTotal(pAA)
	if err != nil {
		log.Fatal(err)
	}
	tAB, err := kron.TriangleTotal(pAB)
	if err != nil {
		log.Fatal(err)
	}
	truthDur := time.Since(start)
	stats, err := pAB.FactorStats()
	if err != nil {
		log.Fatal(err)
	}
	sa, sb := stats[0], stats[1]

	fmt.Println("§VI statistics table (web-NotreDame replaced by WebGraph stand-in; see DESIGN.md):")
	fmt.Printf("%-8s %14s %16s %20s\n", "Matrix", "Vertices", "Edges", "Triangles")
	fmt.Printf("%-8s %14d %16d %20d\n", "A", int64(a.NumVertices()), a.NumEdgesUndirected(), sa.Total)
	fmt.Printf("%-8s %14d %16d %20d\n", "B=A+I", int64(b.NumVertices()), b.NumEdgesUndirected(), sb.Total)
	fmt.Printf("%-8s %14d %16d %20d\n", "A⊗A", pAA.NumVertices(), pAA.NumEdgesUndirected(), tAA)
	fmt.Printf("%-8s %14d %16d %20d\n", "A⊗B", pAB.NumVertices(), pAB.NumEdgesUndirected(), tAB)
	fmt.Printf("\nτ(A⊗A) = 6·τ(A)²: %v;  self-loop boost τ(A⊗B)/τ(A⊗A) = %.3f\n",
		tAA == 6*sa.Total*sa.Total, float64(tAB)/float64(tAA))
	fmt.Printf("timing: generation %v, ground truth %v (three factor triangle passes; %d wedge checks on A, %d on B)\n",
		genDur, truthDur, sa.WedgeChecks, sb.WedgeChecks)
	fmt.Printf("paper analog: 2.38T/2.73T-edge products, 111.4T/141.0T triangles, 10.5 s, 7,734,429 wedge checks\n")
}

// expFig7 reproduces the Fig. 7 egonet experiment (E2): three degree-3
// vertices of A with 1, 2, 3 triangles yield nine product vertices in
// A⊗A (degree 9) and A⊗B (degree 12) whose triangle counts follow
// Thm. 1 and Cor. 1.
func expFig7(n int, seed uint64) {
	a := gen.WebGraph(n, 3, 0.75, seed)
	pAA := kron.MustProduct(a, a)
	stats, err := pAA.FactorStats()
	if err != nil {
		log.Fatal(err)
	}
	statsA := stats[0]
	picks := map[int64]int32{}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Degree(int32(v)) == 3 {
			tv := statsA.T[v]
			if _, ok := picks[tv]; !ok && tv >= 1 && tv <= 3 {
				picks[tv] = int32(v)
			}
		}
	}
	for _, want := range []int64{1, 2, 3} {
		if _, ok := picks[want]; !ok {
			log.Fatalf("factor lacks a degree-3 vertex with %d triangles; change -seed", want)
		}
	}
	fmt.Printf("selected factor vertices (degree 3): t=1 -> %d, t=2 -> %d, t=3 -> %d\n\n",
		picks[1], picks[2], picks[3])

	b := a.WithAllLoops()
	for _, prod := range []struct {
		name string
		p    *kron.Product
	}{
		{"A⊗A", pAA},
		{"A⊗B", kron.MustProduct(a, b)},
	} {
		tc, err := kron.VertexParticipation(prod.p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s egonets (paper Fig. 7 %s panel):\n", prod.name, map[string]string{"A⊗A": "top", "A⊗B": "bottom"}[prod.name])
		for _, ta := range []int64{1, 2, 3} {
			for _, tb := range []int64{1, 2, 3} {
				v := prod.p.Vertex(picks[ta], picks[tb])
				ego, err := kron.VerifyEgonet(prod.p, tc, v, 10000)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  p=%-12d deg=%-3d t_p=%-4d (egonet recount: %d ✓)\n",
					v, ego.Degree, tc.At(v), ego.LocalTriangles)
			}
		}
		fmt.Println()
	}
}

// expEx1 prints the Ex. 1(a)-(c) clique closed forms next to the formula
// outputs (E3).
func expEx1(_ int, _ uint64) {
	nA, nB := int64(4), int64(5)
	type rowT struct {
		name                      string
		p                         *kron.Product
		wantDeg, wantVtx, wantEdg int64
	}
	n := nA * nB
	rows := []rowT{
		{"K4⊗K5", kron.MustProduct(gen.Clique(int(nA)), gen.Clique(int(nB))),
			n + 1 - nA - nB, (n + 1 - nA - nB) * (n + 4 - 2*nA - 2*nB) / 2, n + 4 - 2*nA - 2*nB},
		{"K4⊗J5", kron.MustProduct(gen.Clique(int(nA)), gen.CliqueWithLoops(int(nB))),
			(nA - 1) * nB, (n - nB) * (n - 2*nB) / 2, n - 2*nB},
		{"J4⊗J5", kron.MustProduct(gen.CliqueWithLoops(int(nA)), gen.CliqueWithLoops(int(nB))),
			n - 1, (n - 1) * (n - 2) / 2, n - 2},
	}
	fmt.Printf("%-8s %10s %10s %12s %12s %12s %12s\n",
		"Product", "deg", "deg(fml)", "t/vertex", "t(fml)", "Δ/edge", "Δ(fml)")
	for _, r := range rows {
		tc, err := kron.VertexParticipation(r.p)
		if err != nil {
			log.Fatal(err)
		}
		dc, err := kron.EdgeParticipation(r.p)
		if err != nil {
			log.Fatal(err)
		}
		// Find a representative non-loop edge.
		var eu, ev int64 = -1, -1
		r.p.EachArc(func(u, v int64) bool {
			if u != v {
				eu, ev = u, v
				return false
			}
			return true
		})
		fmt.Printf("%-8s %10d %10d %12d %12d %12d %12d\n",
			r.name, r.wantDeg, r.p.Degree(0), r.wantVtx, tc.At(0), r.wantEdg, dc.At(eu, ev))
	}
	fmt.Println("\n(paper's Ex. 1(b) degree line prints nA·nB - nA; the realized clique degree is (nA-1)·nB — validated against explicit products)")
}

// expEx2 reproduces Ex. 2 (E4): the hub-cycle product's edge histogram
// and truss structure, which no plain Kronecker formula captures.
func expEx2(_ int, _ uint64) {
	a := gen.HubCycle(4)
	p := kron.MustProduct(a, a)
	tau, err := kron.TriangleTotal(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A: 4-cycle + hub (5 vertices, 8 edges, 4 triangles)\n")
	fmt.Printf("C = A⊗A: %d vertices, %d edges, %d triangles (paper: 25, 128, 96)\n",
		p.NumVertices(), p.NumEdgesUndirected(), tau)

	dc, err := kron.EdgeParticipation(p)
	if err != nil {
		log.Fatal(err)
	}
	c, err := p.Materialize(1000, 100000)
	if err != nil {
		log.Fatal(err)
	}
	hist := map[int64]int64{}
	c.EachArc(func(u, v int32) bool {
		if d := dc.At(int64(u), int64(v)); u < v && d != 0 {
			hist[d]++
		}
		return true
	})
	keys := make([]int64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Println("edge participation histogram (paper: 32 edges @1, 64 @2, 32 @4):")
	for _, k := range keys {
		fmt.Printf("  Δ=%d: %d edges\n", k, hist[k])
	}

	d := truss.Decompose(c)
	fmt.Println("truss decomposition by direct peeling (paper: 128 in 3-truss, 80 in 4-truss, 0 in 5-truss):")
	for k := 3; k <= 5; k++ {
		fmt.Printf("  |T^(%d)| = %d\n", k, len(d.KTrussEdges(k)))
	}
	if _, err := kron.TrussDecomposition(p); err != nil {
		fmt.Printf("Thm. 3 correctly refuses this product: %v\n", err)
	}
}

// expThm3 generates a product with fully known truss decomposition and
// verifies it against direct peeling (E5).
func expThm3(_ int, seed uint64) {
	a := gen.ErdosRenyi(50, 0.25, seed)
	b := gen.TriangleLimitedPA(40, seed+1)
	fmt.Printf("A: ER(50, 0.25), max Δ_A = %d; B: §III.D(b) generator, max Δ_B = %d\n",
		gen.MaxEdgeTriangles(a), gen.MaxEdgeTriangles(b))
	p := kron.MustProduct(a, b)
	pt, err := kron.TrussDecomposition(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C: %d vertices, %d edges; ground-truth trussness for every edge, MaxK = %d\n",
		p.NumVertices(), p.NumEdgesUndirected(), pt.MaxK())
	sizes := pt.TrussSizes()
	for k := 3; k <= pt.MaxK(); k++ {
		fmt.Printf("  |T^(%d)| = %d\n", k, sizes[k])
	}
	c, err := p.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	direct := truss.Decompose(c)
	mismatch := 0
	c.EachEdgeUndirected(func(u, v int32) bool {
		if pt.EdgeTruss(int64(u), int64(v)) != direct.EdgeTruss(u, v) {
			mismatch++
		}
		return true
	})
	fmt.Printf("verified against direct peeling of %d edges: %d mismatches\n",
		c.NumEdgesUndirected(), mismatch)
}

// expCensus reproduces the directed and labeled census theorems on a
// validation-scale product (E6, E7).
func expCensus(_ int, seed uint64) {
	// Directed factor with mixed reciprocity.
	base := gen.WebGraph(30, 3, 0.6, seed)
	var arcs []graph.Edge
	i := 0
	base.EachEdgeUndirected(func(u, v int32) bool {
		i++
		switch i % 4 {
		case 0:
			arcs = append(arcs, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
		case 1, 2:
			arcs = append(arcs, graph.Edge{U: u, V: v})
		default:
			arcs = append(arcs, graph.Edge{U: v, V: u})
		}
		return true
	})
	a := graph.FromEdges(base.NumVertices(), arcs, false)
	b := gen.Clique(5).WithAllLoops()
	p := kron.MustProduct(a, b)
	ds, err := kron.DirectedCensus(p)
	if err != nil {
		log.Fatal(err)
	}
	c, err := p.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	directV := census.DirectedVertexCensus(c)
	directE := census.DirectedEdgeCensus(c)
	fmt.Println("directed census of C (Thm. 4/5), Kronecker vs direct:")
	fmt.Printf("%-6s %14s %14s %8s      %-6s %14s %8s\n",
		"vtype", "kron", "direct", "match", "etype", "kron", "match")
	vts := census.AllVertexTypes()
	ets := census.AllEdgeTypes()
	for idx := range vts {
		kv := ds.Vertex[vts[idx]].Vector()
		dv := directV.Counts[vts[idx]]
		vTotal := sparse.SumVec(kv)
		ke := ds.Edge[ets[idx]]
		eTotal, err := ke.Total()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %14d %14d %8v      %-6s %14d %8v\n",
			vts[idx], vTotal, sparse.SumVec(dv), sparse.EqualVec(kv, dv),
			ets[idx], eTotal, ke.EqualOnArcs(c, directE.Delta[ets[idx]]))
	}

	// Labeled: 3 colors on an undirected factor.
	labels := make([]int32, base.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	la := base.WithLabels(labels, 3)
	lp := kron.MustProduct(la, gen.Clique(5))
	ls, err := kron.LabeledCensus(lp)
	if err != nil {
		log.Fatal(err)
	}
	lc, err := lp.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	directLV := census.LabeledVertexCensus(lc)
	allMatch := true
	var grand int64
	for ty, vec := range ls.Vertex {
		got := vec.Vector()
		if !sparse.EqualVec(got, directLV[ty]) {
			allMatch = false
		}
		grand += sparse.SumVec(got)
	}
	fmt.Printf("\nlabeled census (Thm. 6): %d types, all matching direct: %v; Σ counts = %d\n",
		len(ls.Vertex), allMatch, grand)
}

// expDegrees reproduces the §III.A degree-distribution analysis (E8).
func expDegrees(n int, seed uint64) {
	a := gen.WebGraph(n, 3, 0.75, seed)
	b := gen.WebGraph(n/2, 3, 0.75, seed+1)
	hA := stats.NewHistogram(a.Degrees())
	hB := stats.NewHistogram(b.Degrees())
	hC := stats.KronHistogram(hA, hB)
	p := kron.MustProduct(a, b)

	fmt.Printf("degree distributions (loop-free factors: d_C = d_A ⊗ d_B):\n")
	fmt.Printf("  A: n=%d, max deg %d, ratio %.3e, Hill tail %.2f\n",
		a.NumVertices(), hA.Max(), stats.MaxDegreeRatio(a.Degrees()),
		stats.HillEstimator(a.Degrees(), a.NumVertices()/50))
	fmt.Printf("  B: n=%d, max deg %d, ratio %.3e, Hill tail %.2f\n",
		b.NumVertices(), hB.Max(), stats.MaxDegreeRatio(b.Degrees()),
		stats.HillEstimator(b.Degrees(), b.NumVertices()/50))
	maxC, _ := p.MaxDegree()
	ratioC := float64(maxC) / float64(p.NumVertices())
	fmt.Printf("  C: n=%d, max deg %d, ratio %.3e\n", p.NumVertices(), maxC, ratioC)
	fmt.Printf("  ratio product (‖dA‖∞/nA)(‖dB‖∞/nB) = %.3e — squaring effect of §III.A: %v\n",
		stats.MaxDegreeRatio(a.Degrees())*stats.MaxDegreeRatio(b.Degrees()),
		ratioC == stats.MaxDegreeRatio(a.Degrees())*stats.MaxDegreeRatio(b.Degrees()) ||
			abs(ratioC-stats.MaxDegreeRatio(a.Degrees())*stats.MaxDegreeRatio(b.Degrees())) < 1e-15)
	xs, ps := hC.CCDF()
	fmt.Println("  CCDF of d_C (log-spaced sample):")
	for i := 0; i < len(xs); i += maxInt(1, len(xs)/12) {
		fmt.Printf("    P(d >= %6d) = %.3e\n", xs[i], ps[i])
	}
}

// expRem1 reproduces the mechanism of Rem. 1 (E9): models with
// *independent edges* — the stochastic Kronecker family — close far
// fewer triangles than the nonstochastic product with the very same
// degree sequence, and self loops in a factor tune the nonstochastic
// counts further up (Rem. 3).
func expRem1(n int, seed uint64) {
	a := gen.WebGraph(n/32, 3, 0.75, seed)
	pAA := kron.MustProduct(a, a)
	pAB := kron.MustProduct(a, a.WithAllLoops())
	tauAA, err := kron.TriangleTotal(pAA)
	if err != nil {
		log.Fatal(err)
	}
	tauAB, err := kron.TriangleTotal(pAB)
	if err != nil {
		log.Fatal(err)
	}

	// Edge-independent null with the identical degree sequence
	// (Chung-Lu): analytic expectation plus one sampled instance.
	degs := pAA.DegreeVector()
	expected := gen.ExpectedTrianglesChungLu(degs)
	cl := gen.ChungLu(degs, seed+3)
	tauCL := triangle.Count(cl).Total

	fmt.Println("Rem. 1: independent-edge (stochastic) models vs nonstochastic products")
	fmt.Printf("  %-44s %12s %14s\n", "model", "edges", "triangles")
	fmt.Printf("  %-44s %12d %14d\n", "nonstochastic A⊗A (exact)",
		pAA.NumEdgesUndirected(), tauAA)
	fmt.Printf("  %-44s %12d %14d\n", "nonstochastic A⊗(A+I), self-loop boost (exact)",
		pAB.NumEdgesUndirected(), tauAB)
	fmt.Printf("  %-44s %12s %14.0f\n", "independent edges, same degrees (analytic E)",
		"same", expected)
	fmt.Printf("  %-44s %12d %14d\n", "independent edges, same degrees (sampled)",
		cl.NumEdgesUndirected(), tauCL)
	fmt.Printf("\n  nonstochastic keeps %.1fx the null's triangles; with self loops %.1fx\n",
		float64(tauAA)/float64(tauCL), float64(tauAB)/float64(tauCL))
	fmt.Println("  (local counts are tunable by adding triangles/self-loops to factors — Rem. 1)")
}

// expPower exercises the repeated-power construction of [3] (the
// generator the paper's framework plugs into): τ(B^{⊗k}) =
// 6^{k-1}·τ(B)^k for a loop-free factor, with per-vertex ground truth at
// any of the Π n_i vertices.
func expPower(n int, seed uint64) {
	b := gen.WebGraph(n/32, 3, 0.75, seed)
	tb := triangle.Count(b).Total
	fmt.Printf("factor B: %d vertices, %d edges, τ(B) = %d\n", b.NumVertices(), b.NumEdgesUndirected(), tb)
	fmt.Printf("%-3s %20s %20s %24s %10s\n", "k", "vertices", "arcs", "triangles (exact)", "6^{k-1}τ^k")
	for k := 1; k <= 4; k++ {
		p, err := kron.KroneckerPower(b, k)
		if err != nil {
			fmt.Printf("%-3d overflow: %v\n", k, err)
			return
		}
		tau, err := kron.TriangleTotal(p)
		if err != nil {
			fmt.Printf("%-3d triangles exceed int64: %v\n", k, err)
			return
		}
		want := int64(1)
		for i := 0; i < k; i++ {
			want *= tb
		}
		for i := 0; i < k-1; i++ {
			want *= 6
		}
		fmt.Printf("%-3d %20d %20d %24d %10v\n", k, p.NumVertices(), p.NumArcs(), tau, tau == want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
