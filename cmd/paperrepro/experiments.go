package main

import (
	"fmt"
	"log"
	"math"
	"slices"
	"sort"
	"time"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/stats"
	"kronvalid/internal/triangle"
	"kronvalid/internal/truss"
)

// expTable1 reproduces the §VI statistics table with the offline
// web-graph stand-in (E1) and the sublinear-ground-truth timing claim
// (E10).
func expTable1(r *report, n int, seed uint64) {
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

	r.println("§VI statistics table (web-NotreDame replaced by WebGraph stand-in; see DESIGN.md):")
	r.printf("%-8s %14s %16s %20s\n", "Matrix", "Vertices", "Edges", "Triangles")
	r.printf("%-8s %14d %16d %20d\n", "A", int64(a.NumVertices()), a.NumEdgesUndirected(), sa.Total)
	r.printf("%-8s %14d %16d %20d\n", "B=A+I", int64(b.NumVertices()), b.NumEdgesUndirected(), sb.Total)
	r.printf("%-8s %14d %16d %20d\n", "A⊗A", pAA.NumVertices(), pAA.NumEdgesUndirected(), tAA)
	r.printf("%-8s %14d %16d %20d\n", "A⊗B", pAB.NumVertices(), pAB.NumEdgesUndirected(), tAB)
	r.printf("\nτ(A⊗A) = 6·τ(A)²: %v;  self-loop boost τ(A⊗B)/τ(A⊗A) = %.3f\n",
		r.check("table1: τ(A⊗A) = 6·τ(A)²", tAA == 6*sa.Total*sa.Total), float64(tAB)/float64(tAA))
	r.printf("timing: generation %v, ground truth %v (three factor triangle passes; %d wedge checks on A, %d on B)\n",
		genDur, truthDur, sa.WedgeChecks, sb.WedgeChecks)
	r.printf("paper analog: 2.38T/2.73T-edge products, 111.4T/141.0T triangles, 10.5 s, 7,734,429 wedge checks\n")
}

// expFig7 reproduces the Fig. 7 egonet experiment (E2): three degree-3
// vertices of A with 1, 2, 3 triangles yield nine product vertices in
// A⊗A (degree 9) and A⊗B (degree 12) whose triangle counts follow
// Thm. 1 and Cor. 1.
func expFig7(r *report, n int, seed uint64) {
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
	r.printf("selected factor vertices (degree 3): t=1 -> %d, t=2 -> %d, t=3 -> %d\n\n",
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
		r.printf("%s egonets (paper Fig. 7 %s panel):\n", prod.name, map[string]string{"A⊗A": "top", "A⊗B": "bottom"}[prod.name])
		for _, ta := range []int64{1, 2, 3} {
			for _, tb := range []int64{1, 2, 3} {
				v := prod.p.Vertex(picks[ta], picks[tb])
				ego, err := kron.ExtractEgonet(prod.p, v, 10000)
				if err != nil {
					log.Fatal(err)
				}
				mark := "✓"
				if !r.check(fmt.Sprintf("fig7: %s egonet of %d", prod.name, v), ego.LocalTriangles == tc.At(v)) {
					mark = "✗"
				}
				r.printf("  p=%-12d deg=%-3d t_p=%-4d (egonet recount: %d %s)\n",
					v, ego.Degree, tc.At(v), ego.LocalTriangles, mark)
			}
		}
		r.println()
	}
}

// expEx1 prints the Ex. 1(a)-(c) clique closed forms next to the formula
// outputs (E3).
func expEx1(r *report, _ int, _ uint64) {
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
	r.printf("%-8s %10s %10s %12s %12s %12s %12s\n",
		"Product", "deg", "deg(fml)", "t/vertex", "t(fml)", "Δ/edge", "Δ(fml)")
	for _, row := range rows {
		cols := kron.Columns(row.p)
		dg := named(cols, "degree formula")[0]
		tc := named(cols, "vertex participation")[0]
		dc := named(cols, "edge participation")[0]
		// Find a representative non-loop edge.
		var eu, ev int64 = -1, -1
		row.p.EachArc(func(u, v int64) bool {
			if u != v {
				eu, ev = u, v
				return false
			}
			return true
		})
		deg, vtx := dg.Eval.(*kron.KronVecSum).At(0), tc.Eval.(*kron.KronVecSum).At(0)
		edg := dc.Eval.(*kron.KronMatSum).At(eu, ev)
		r.check("ex1: "+row.name+" closed forms", deg == row.wantDeg && vtx == row.wantVtx && edg == row.wantEdg)
		// The table reads one arc; the check reads every arc, loops included.
		c, err := row.p.Materialize(100, 1000)
		if err != nil {
			log.Fatal(err)
		}
		r.check("ex1: "+row.name+" Δ at every arc", agrees(dc, c))
		r.printf("%-8s %10d %10d %12d %12d %12d %12d\n",
			row.name, row.wantDeg, deg, row.wantVtx, vtx, row.wantEdg, edg)
	}
	r.println("\n(paper's Ex. 1(b) degree line prints nA·nB - nA; the realized clique degree is (nA-1)·nB — validated against explicit products)")
}

// expEx2 reproduces Ex. 2 (E4): the hub-cycle product's edge histogram
// and truss structure, which no plain Kronecker formula captures.
func expEx2(r *report, _ int, _ uint64) {
	a := gen.HubCycle(4)
	p := kron.MustProduct(a, a)
	tau, err := kron.TriangleTotal(p)
	if err != nil {
		log.Fatal(err)
	}
	r.printf("A: 4-cycle + hub (5 vertices, 8 edges, 4 triangles)\n")
	r.printf("C = A⊗A: %d vertices, %d edges, %d triangles (paper: 25, 128, 96)\n",
		p.NumVertices(), p.NumEdgesUndirected(), tau)
	r.check("ex2: size of C", p.NumVertices() == 25 && p.NumEdgesUndirected() == 128 && tau == 96)

	cols := kron.Columns(p)
	dc := named(cols, "edge participation")[0].Eval.(*kron.KronMatSum)
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
	r.println("edge participation histogram (paper: 32 edges @1, 64 @2, 32 @4):")
	for _, k := range keys {
		r.printf("  Δ=%d: %d edges\n", k, hist[k])
	}
	r.check("ex2: edge participation histogram", len(hist) == 3 && hist[1] == 32 && hist[2] == 64 && hist[4] == 32)

	d := truss.Decompose(c)
	r.println("truss decomposition by direct peeling (paper: 128 in 3-truss, 80 in 4-truss, 0 in 5-truss):")
	paperTruss := map[int]int{3: 128, 4: 80, 5: 0}
	for k := 3; k <= 5; k++ {
		size := len(d.KTrussEdges(k))
		r.check(fmt.Sprintf("ex2: |T^(%d)|", k), size == paperTruss[k])
		r.printf("  |T^(%d)| = %d\n", k, size)
	}
	skip := named(cols, "truss decomposition (Thm. 3)")[0].Skip
	if r.check("ex2: Thm. 3 refuses a product with Δ_B > 1", skip != "") {
		r.printf("Thm. 3 correctly refuses this product: %s\n", skip)
	}
}

// expThm3 generates a product with fully known truss decomposition and
// verifies it against direct peeling (E5).
func expThm3(r *report, _ int, seed uint64) {
	a := gen.ErdosRenyi(50, 0.25, seed)
	b := gen.TriangleLimitedPA(40, seed+1)
	r.printf("A: ER(50, 0.25), max Δ_A = %d; B: §III.D(b) generator, max Δ_B = %d\n",
		gen.MaxEdgeTriangles(a), gen.MaxEdgeTriangles(b))
	p := kron.MustProduct(a, b)
	col := named(kron.Columns(p), "truss decomposition (Thm. 3)")[0]
	if col.Skip != "" {
		log.Fatal(col.Skip)
	}
	// The κ-truss is the edges of trussness ≥ κ, each edge two arcs.
	got := col.Eval.Vector()
	maxK := slices.Max(got)
	r.printf("C: %d vertices, %d edges; ground-truth trussness for every edge, MaxK = %d\n",
		p.NumVertices(), p.NumEdgesUndirected(), maxK)
	for k := int64(3); k <= maxK; k++ {
		var arcs int64
		for _, x := range got {
			if x >= k {
				arcs++
			}
		}
		r.printf("  |T^(%d)| = %d\n", k, arcs/2)
	}
	c, err := p.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	mismatch := 0 // arcs; each edge is two
	for i, x := range col.Direct(c) {
		if got[i] != x {
			mismatch++
		}
	}
	r.check("thm3: trussness of every edge", mismatch == 0)
	r.printf("verified against direct peeling of %d edges: %d mismatches\n",
		c.NumEdgesUndirected(), mismatch/2)
}

// expCensus reproduces the directed and labeled census theorems on a
// validation-scale product (E6, E7).
func expCensus(r *report, _ int, seed uint64) {
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
	c, err := p.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	cols := kron.Columns(p)
	vcols := named(cols, "directed vertex census (Thm. 4)")
	ecols := named(cols, "directed edge census (Thm. 5)")
	r.println("directed census of C (Thm. 4/5), Kronecker vs direct:")
	r.printf("%-6s %14s %14s %8s      %-6s %14s %8s\n",
		"vtype", "kron", "direct", "match", "etype", "kron", "match")
	for idx, vc := range vcols {
		ec := ecols[idx]
		kv, dv := vc.Eval.Vector(), vc.Direct(c)
		eTotal, err := ec.Eval.Total()
		if err != nil {
			log.Fatal(err)
		}
		r.printf("%-6s %14d %14d %8v      %-6s %14d %8v\n",
			vc.Type, sum(kv), sum(dv), r.check("census: vertex type "+vc.Type, slices.Equal(kv, dv)),
			ec.Type, eTotal, r.check("census: edge type "+ec.Type, agrees(ec, c)))
	}

	// Labeled: 3 colors on an undirected factor.
	labels := make([]int32, base.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	la := base.WithLabels(labels, 3)
	lp := kron.MustProduct(la, gen.Clique(5))
	lc, err := lp.Materialize(10000, 4_000_000)
	if err != nil {
		log.Fatal(err)
	}
	lcols := kron.Columns(lp)
	lvcols := named(lcols, "labeled vertex census (Thm. 6)")
	allMatch := true
	var grand int64
	for _, col := range lvcols {
		allMatch = agrees(col, lc) && allMatch
		grand += sum(col.Eval.Vector())
	}
	r.printf("\nlabeled census (Thm. 6): %d types, all matching direct: %v; Σ counts = %d\n",
		len(lvcols), r.check("census: labeled vertex census (Thm. 6)", allMatch), grand)
	edgeMatch := true
	for _, col := range named(lcols, "labeled edge census (Thm. 7)") {
		edgeMatch = edgeMatch && agrees(col, lc)
	}
	r.check("census: labeled edge census (Thm. 7)", edgeMatch)
}

// named returns the columns of a product's table with the given name.
func named(cols []kron.Column, name string) []kron.Column {
	var out []kron.Column
	for _, col := range cols {
		if col.Name == name {
			out = append(out, col)
		}
	}
	return out
}

// agrees reports whether a column applies and equals its direct count
// on c, the materialized product.
func agrees(col kron.Column, c *graph.Graph) bool {
	return col.Skip == "" && slices.Equal(col.Eval.Vector(), col.Direct(c))
}

// expDegrees reproduces the §III.A degree-distribution analysis (E8).
func expDegrees(r *report, n int, seed uint64) {
	a := gen.WebGraph(n, 3, 0.75, seed)
	b := gen.WebGraph(n/2, 3, 0.75, seed+1)
	hA := stats.NewHistogram(a.Degrees())
	hB := stats.NewHistogram(b.Degrees())
	hC := stats.KronHistogram(hA, hB)
	p := kron.MustProduct(a, b)

	r.printf("degree distributions (loop-free factors: d_C = d_A ⊗ d_B):\n")
	r.printf("  A: n=%d, max deg %d, ratio %.3e, Hill tail %.2f\n",
		a.NumVertices(), hA.Max(), stats.MaxDegreeRatio(a.Degrees()),
		stats.HillEstimator(a.Degrees(), a.NumVertices()/50))
	r.printf("  B: n=%d, max deg %d, ratio %.3e, Hill tail %.2f\n",
		b.NumVertices(), hB.Max(), stats.MaxDegreeRatio(b.Degrees()),
		stats.HillEstimator(b.Degrees(), b.NumVertices()/50))
	maxC, _ := p.MaxDegree()
	ratioC := float64(maxC) / float64(p.NumVertices())
	r.printf("  C: n=%d, max deg %d, ratio %.3e\n", p.NumVertices(), maxC, ratioC)
	ratioAB := stats.MaxDegreeRatio(a.Degrees()) * stats.MaxDegreeRatio(b.Degrees())
	r.printf("  ratio product (‖dA‖∞/nA)(‖dB‖∞/nB) = %.3e — squaring effect of §III.A: %v\n",
		ratioAB, r.check("degrees: max-ratio squaring", math.Abs(ratioC-ratioAB) < 1e-15))
	xs, ps := hC.CCDF()
	r.println("  CCDF of d_C (log-spaced sample):")
	for i := 0; i < len(xs); i += max(1, len(xs)/12) {
		r.printf("    P(d >= %6d) = %.3e\n", xs[i], ps[i])
	}
}

// expRem1 reproduces the mechanism of Rem. 1 (E9): models with
// *independent edges* — the stochastic Kronecker family — close far
// fewer triangles than the nonstochastic product with the very same
// degree sequence, and self loops in a factor tune the nonstochastic
// counts further up (Rem. 3).
func expRem1(r *report, n int, seed uint64) {
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

	r.println("Rem. 1: independent-edge (stochastic) models vs nonstochastic products")
	r.printf("  %-44s %12s %14s\n", "model", "edges", "triangles")
	r.printf("  %-44s %12d %14d\n", "nonstochastic A⊗A (exact)",
		pAA.NumEdgesUndirected(), tauAA)
	r.printf("  %-44s %12d %14d\n", "nonstochastic A⊗(A+I), self-loop boost (exact)",
		pAB.NumEdgesUndirected(), tauAB)
	r.printf("  %-44s %12s %14.0f\n", "independent edges, same degrees (analytic E)",
		"same", expected)
	r.printf("  %-44s %12d %14d\n", "independent edges, same degrees (sampled)",
		cl.NumEdgesUndirected(), tauCL)
	r.printf("\n  nonstochastic keeps %.1fx the null's triangles; with self loops %.1fx\n",
		float64(tauAA)/float64(tauCL), float64(tauAB)/float64(tauCL))
	r.println("  (local counts are tunable by adding triangles/self-loops to factors — Rem. 1)")
}

// expPower exercises the repeated-power construction of [3] (the
// generator the paper's framework plugs into): τ(B^{⊗k}) =
// 6^{k-1}·τ(B)^k for a loop-free factor, with per-vertex ground truth at
// any of the Π n_i vertices.
func expPower(r *report, n int, seed uint64) {
	b := gen.WebGraph(n/32, 3, 0.75, seed)
	tb := triangle.Count(b).Total
	r.printf("factor B: %d vertices, %d edges, τ(B) = %d\n", b.NumVertices(), b.NumEdgesUndirected(), tb)
	r.printf("%-3s %20s %20s %24s %10s\n", "k", "vertices", "arcs", "triangles (exact)", "6^{k-1}τ^k")
	for k := 1; k <= 4; k++ {
		p, err := kron.KroneckerPower(b, k)
		if err != nil {
			r.printf("%-3d overflow: %v\n", k, err)
			return
		}
		tau, err := kron.TriangleTotal(p)
		if err != nil {
			r.printf("%-3d triangles exceed int64: %v\n", k, err)
			return
		}
		want := int64(1)
		for i := 0; i < k; i++ {
			want *= tb
		}
		for i := 0; i < k-1; i++ {
			want *= 6
		}
		r.printf("%-3d %20d %20d %24d %10v\n", k, p.NumVertices(), p.NumArcs(), tau,
			r.check(fmt.Sprintf("power: τ(B^{⊗%d})", k), tau == want))
	}
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
