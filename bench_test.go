package kronvalid

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded results). Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics:
//   triangles      exact τ of the product under benchmark
//   wedge_checks   intersection comparisons spent on factor ground truth
//   edges          product edge count

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"kronvalid/internal/census"
	"kronvalid/internal/gen"
	"kronvalid/internal/kron"
	"kronvalid/internal/model"
	"kronvalid/internal/sparse"
	"kronvalid/internal/stats"
	"kronvalid/internal/stream"
	"kronvalid/internal/triangle"
	"kronvalid/internal/truss"
)

// benchWebFactor caches the stand-in web factor across benchmarks.
var benchWebFactor = func() *Graph {
	return gen.WebGraph(1<<14, 3, 0.75, 2018)
}()

// BenchmarkTableIGroundTruth regenerates the §VI statistics table (E1):
// exact vertex/edge/triangle counts of A⊗A and A⊗B from the factors.
func BenchmarkTableIGroundTruth(b *testing.B) {
	a := benchWebFactor
	bb := a.WithAllLoops()
	var tAA, tAB int64
	for i := 0; i < b.N; i++ {
		pAA := kron.MustProduct(a, a)
		pAB := kron.MustProduct(a, bb)
		var err error
		tAA, err = kron.TriangleTotal(pAA)
		if err != nil {
			b.Fatal(err)
		}
		tAB, err = kron.TriangleTotal(pAB)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tAA), "triangles_AA")
	b.ReportMetric(float64(tAB), "triangles_AB")
}

// BenchmarkGroundTruthSpeed isolates the paper's §VI timing claim (E10):
// the full factor triangle pass plus formula application, with wedge
// checks reported (paper: 10.5 s and 7,734,429 wedge checks for a 2.38
// trillion-edge product).
func BenchmarkGroundTruthSpeed(b *testing.B) {
	a := benchWebFactor
	var wedges, tau int64
	for i := 0; i < b.N; i++ {
		res := triangle.Count(a)
		wedges = res.WedgeChecks
		p := kron.MustProduct(a, a)
		var err error
		tau, err = kron.TriangleTotal(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	p := kron.MustProduct(a, a)
	b.ReportMetric(float64(wedges), "wedge_checks")
	b.ReportMetric(float64(tau), "triangles")
	b.ReportMetric(float64(p.NumEdgesUndirected()), "edges")
}

// BenchmarkFig7Egonets regenerates the Fig. 7 experiment (E2): extract
// and verify nine egonets per product without materializing it.
func BenchmarkFig7Egonets(b *testing.B) {
	a := benchWebFactor
	statsA := kron.ComputeFactorStats(a)
	var picks []int32
	seen := map[int64]bool{}
	for v := 0; v < a.NumVertices() && len(picks) < 3; v++ {
		if a.Degree(int32(v)) == 3 {
			tv := statsA.T[v]
			if tv >= 1 && tv <= 3 && !seen[tv] {
				seen[tv] = true
				picks = append(picks, int32(v))
			}
		}
	}
	if len(picks) < 3 {
		b.Skip("factor lacks the three Fig. 7 vertices at this seed")
	}
	p := kron.MustProduct(a, a)
	tc, err := kron.VertexParticipation(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vi := range picks {
			for _, vk := range picks {
				if _, err := kron.VerifyEgonet(p, tc, p.Vertex(vi, vk), 10000); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkEx1Cliques regenerates the Ex. 1 closed forms (E3).
func BenchmarkEx1Cliques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, prod := range []*kron.Product{
			kron.MustProduct(gen.Clique(40), gen.Clique(50)),
			kron.MustProduct(gen.Clique(40), gen.CliqueWithLoops(50)),
			kron.MustProduct(gen.CliqueWithLoops(40), gen.CliqueWithLoops(50)),
		} {
			tc, err := kron.VertexParticipation(prod)
			if err != nil {
				b.Fatal(err)
			}
			_ = tc.At(0)
		}
	}
}

// BenchmarkEx2Truss regenerates Ex. 2 (E4): hub-cycle product histogram
// plus direct truss peeling.
func BenchmarkEx2Truss(b *testing.B) {
	a := gen.HubCycle(4)
	p := kron.MustProduct(a, a)
	var t3, t4 int
	for i := 0; i < b.N; i++ {
		c, err := p.Materialize(1000, 100000)
		if err != nil {
			b.Fatal(err)
		}
		d := truss.Decompose(c)
		t3, t4 = len(d.KTrussEdges(3)), len(d.KTrussEdges(4))
	}
	b.ReportMetric(float64(t3), "t3_edges")
	b.ReportMetric(float64(t4), "t4_edges")
}

// BenchmarkTrussKron regenerates the Thm. 3 experiment (E5): implicit
// truss ground truth for a product with a Δ≤1 factor.
func BenchmarkTrussKron(b *testing.B) {
	a := gen.ErdosRenyi(300, 0.1, 9)
	bb := gen.TriangleLimitedPA(2000, 10)
	p := kron.MustProduct(a, bb)
	b.ResetTimer()
	var maxK int
	for i := 0; i < b.N; i++ {
		pt, err := kron.TrussDecomposition(p)
		if err != nil {
			b.Fatal(err)
		}
		maxK = pt.MaxK()
	}
	b.ReportMetric(float64(maxK), "max_k")
	b.ReportMetric(float64(p.NumEdgesUndirected()), "edges")
}

// BenchmarkDirectedCensus regenerates the Thm. 4/5 experiment (E6): all
// 30 directed type statistics of a large directed product.
func BenchmarkDirectedCensus(b *testing.B) {
	base := gen.WebGraph(4000, 3, 0.7, 5)
	var arcs []Edge
	j := 0
	base.EachEdgeUndirected(func(u, v int32) bool {
		j++
		switch j % 4 {
		case 0:
			arcs = append(arcs, Edge{U: u, V: v}, Edge{U: v, V: u})
		case 1, 2:
			arcs = append(arcs, Edge{U: u, V: v})
		default:
			arcs = append(arcs, Edge{U: v, V: u})
		}
		return true
	})
	a := FromEdges(base.NumVertices(), arcs, false)
	bb := gen.Clique(16)
	p := kron.MustProduct(a, bb)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		ds, err := kron.DirectedCensus(p)
		if err != nil {
			b.Fatal(err)
		}
		cycles, err = ds.Vertex[census.STp].Total()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "directed_3cycles")
}

// BenchmarkLabeledCensus regenerates the Thm. 6/7 experiment (E7).
func BenchmarkLabeledCensus(b *testing.B) {
	base := gen.WebGraph(4000, 3, 0.7, 6)
	labels := make([]int32, base.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	a := base.WithLabels(labels, 3)
	bb := gen.Clique(16)
	p := kron.MustProduct(a, bb)
	b.ResetTimer()
	var rainbow int64
	for i := 0; i < b.N; i++ {
		ls, err := kron.LabeledCensus(p)
		if err != nil {
			b.Fatal(err)
		}
		rainbow, err = ls.Vertex[census.LabelVertexType{Q1: 0, Q2: 1, Q3: 2}].Total()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rainbow), "rainbow_at_red")
}

// BenchmarkDegreeDistribution regenerates the §III.A analysis (E8):
// product degree histogram and tail statistics via Kronecker composition.
func BenchmarkDegreeDistribution(b *testing.B) {
	a := benchWebFactor
	bb := gen.WebGraph(1<<13, 3, 0.75, 2019)
	hA := stats.NewHistogram(a.Degrees())
	hB := stats.NewHistogram(bb.Degrees())
	b.ResetTimer()
	var maxDeg int64
	for i := 0; i < b.N; i++ {
		hC := stats.KronHistogram(hA, hB)
		maxDeg = hC.Max()
	}
	b.ReportMetric(float64(maxDeg), "max_degree")
}

// BenchmarkStochasticVsNonstochastic regenerates the Rem. 1 comparison
// (E9): the exact triangle count of the nonstochastic product vs an
// edge-independent (Chung-Lu) null with the identical degree sequence —
// the mechanism Rem. 1 blames for stochastic Kronecker triangle poverty.
func BenchmarkStochasticVsNonstochastic(b *testing.B) {
	a := gen.WebGraph(1<<8, 3, 0.75, 7)
	p := kron.MustProduct(a, a)
	tauC, err := kron.TriangleTotal(p)
	if err != nil {
		b.Fatal(err)
	}
	degs := p.DegreeVector()
	var tauNull int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := gen.ChungLu(degs, uint64(i+1))
		tauNull = triangle.Count(cl).Total
	}
	b.StopTimer()
	b.ReportMetric(float64(tauC), "nonstoch_triangles")
	b.ReportMetric(float64(tauNull), "independent_null_triangles")
	b.ReportMetric(float64(tauC)/float64(tauNull), "ratio")
}

// BenchmarkParityProperty covers E11: the τ(C) = 6 τ(A) τ(B) identity at
// benchmark scale.
func BenchmarkParityProperty(b *testing.B) {
	a := benchWebFactor
	sa := triangle.Count(a)
	p := kron.MustProduct(a, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tau, err := kron.TriangleTotal(p)
		if err != nil {
			b.Fatal(err)
		}
		if tau != 6*sa.Total*sa.Total {
			b.Fatal("identity violated")
		}
	}
}

// BenchmarkStreamEdges compares edge-emission throughput on a ≥10^7-arc
// product across three paths: EachArc (an adapter over batches), the
// batched generator, and the parallel ordered pipeline. The batched generator
// writes into flat buffers instead of invoking a closure per arc; the
// parallel variant additionally fans communication-free shards across
// GOMAXPROCS while preserving canonical output order.
func BenchmarkStreamEdges(b *testing.B) {
	ctx := context.Background()
	a := gen.WebGraph(1<<14, 3, 0.75, 8) // ~10^5 arcs
	bb := gen.Clique(16)                 // 240 arcs
	p := kron.MustProduct(a, bb)
	if p.NumArcs() < 10_000_000 {
		b.Fatalf("product too small for the throughput comparison: %d arcs", p.NumArcs())
	}
	arcsPerOp := func(b *testing.B) {
		b.SetBytes(p.NumArcs() * 16)
		b.ReportMetric(float64(p.NumArcs()), "arcs/op")
	}
	b.Run("per-arc-adapter", func(b *testing.B) {
		arcsPerOp(b)
		var sink int64
		for i := 0; i < b.N; i++ {
			var count int64
			p.EachArc(func(u, v int64) bool {
				count++
				return true
			})
			sink = count
		}
		_ = sink
	})
	b.Run("batched", func(b *testing.B) {
		arcsPerOp(b)
		var sink int64
		for i := 0; i < b.N; i++ {
			var count int64
			p.EachArcBatch(0, func(batch []Arc) bool {
				count += int64(len(batch))
				return true
			})
			sink = count
		}
		_ = sink
	})
	b.Run("parallel", func(b *testing.B) {
		arcsPerOp(b)
		for i := 0; i < b.N; i++ {
			var count CountingSink
			if _, err := Stream(ctx, ProductSource(p, 0), &count); err != nil {
				b.Fatal(err)
			}
			if count.N != p.NumArcs() {
				b.Fatalf("streamed %d arcs, want %d", count.N, p.NumArcs())
			}
		}
	})
}

// BenchmarkCSRBuild compares product-adjacency ingestion on the same
// ≥10^7-arc product as BenchmarkStreamEdges: the parallel two-pass CSR
// builder (count → prefix-sum → scatter over communication-free shards)
// and the ordered one-pass CSR sink behind the parallel pipeline.
func BenchmarkCSRBuild(b *testing.B) {
	ctx := context.Background()
	a := gen.WebGraph(1<<14, 3, 0.75, 8)
	bb := gen.Clique(16)
	p := kron.MustProduct(a, bb)
	if p.NumArcs() < 10_000_000 {
		b.Fatalf("product too small for the ingestion comparison: %d arcs", p.NumArcs())
	}
	arcsPerOp := func(b *testing.B) {
		b.SetBytes(p.NumArcs() * 16)
		b.ReportMetric(float64(p.NumArcs()), "arcs/op")
	}
	b.Run("two-pass-parallel", func(b *testing.B) {
		arcsPerOp(b)
		for i := 0; i < b.N; i++ {
			g, err := ToCSR(ctx, ProductSource(p, 0))
			if err != nil {
				b.Fatal(err)
			}
			if g.NumArcs() != p.NumArcs() {
				b.Fatalf("CSR has %d arcs, want %d", g.NumArcs(), p.NumArcs())
			}
		}
	})
	b.Run("ordered-sink", func(b *testing.B) {
		arcsPerOp(b)
		for i := 0; i < b.N; i++ {
			g, err := ToCSR(ctx, ProductSource(p, 0), WithTwoPass(false))
			if err != nil {
				b.Fatal(err)
			}
			if g.NumArcs() != p.NumArcs() {
				b.Fatalf("CSR has %d arcs, want %d", g.NumArcs(), p.NumArcs())
			}
		}
	})
}

// BenchmarkCSRScan compares the consumer-side access pattern of the
// analytics engines (full adjacency sweeps plus membership probes) on
// the CSR representation versus the map adjacency it replaced.
func BenchmarkCSRScan(b *testing.B) {
	ctx := context.Background()
	a := gen.WebGraph(1<<12, 3, 0.75, 8)
	bb := gen.Clique(16)
	p := kron.MustProduct(a, bb)
	g, err := ToCSR(ctx, ProductSource(p, 0))
	if err != nil {
		b.Fatal(err)
	}
	adj := make(map[int64][]int64, p.NumVertices())
	p.EachArcBatch(0, func(batch []Arc) bool {
		for _, arc := range batch {
			adj[arc.U] = append(adj[arc.U], arc.V)
		}
		return true
	})
	bytesPerOp := func(b *testing.B) { b.SetBytes(p.NumArcs() * 8) }
	b.Run("csr", func(b *testing.B) {
		bytesPerOp(b)
		var sink int64
		for i := 0; i < b.N; i++ {
			var sum int64
			for v := int64(0); v < g.NumVertices(); v++ {
				for _, w := range g.Neighbors(v) {
					sum += w
				}
			}
			sink = sum
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		bytesPerOp(b)
		var sink int64
		for i := 0; i < b.N; i++ {
			var sum int64
			for v := int64(0); v < p.NumVertices(); v++ {
				for _, w := range adj[v] {
					sum += w
				}
			}
			sink = sum
		}
		_ = sink
	})
}

// BenchmarkEdgeStream measures the raw edge-generation throughput of the
// implicit product (the generator side of the paper's pipeline).
func BenchmarkEdgeStream(b *testing.B) {
	a := gen.WebGraph(1<<10, 3, 0.75, 8)
	bb := gen.HubCycle(6)
	p := kron.MustProduct(a, bb)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		var count int64
		p.EachArc(func(u, v int64) bool {
			count++
			return true
		})
		sink = count
	}
	b.StopTimer()
	b.ReportMetric(float64(sink)/b.Elapsed().Seconds()*float64(b.N)/float64(b.N), "arcs_total")
	b.SetBytes(sink * 16)
}

// BenchmarkShardedGeneration measures communication-free parallel
// generation throughput across GOMAXPROCS shards.
func BenchmarkShardedGeneration(b *testing.B) {
	ctx := context.Background()
	a := gen.WebGraph(1<<10, 3, 0.75, 8)
	bb := gen.HubCycle(6)
	p := kron.MustProduct(a, bb)
	src := ProductSource(p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count CountingSink
		if _, err := Stream(ctx, src, &count); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(p.NumArcs() * 16)
}

// BenchmarkFactorTrianglePass measures the combinatorial triangle engine
// on the web factor (the dominant cost of ground-truth computation).
func BenchmarkFactorTrianglePass(b *testing.B) {
	a := benchWebFactor
	b.ResetTimer()
	var wedges int64
	for i := 0; i < b.N; i++ {
		wedges = triangle.Count(a).WedgeChecks
	}
	b.ReportMetric(float64(wedges), "wedge_checks")
}

// BenchmarkVertexStatLookup measures the O(1) per-vertex formula
// evaluation that makes trillion-vertex queries practical.
func BenchmarkVertexStatLookup(b *testing.B) {
	a := benchWebFactor
	p := kron.MustProduct(a, a.WithAllLoops())
	tc, err := kron.VertexParticipation(p)
	if err != nil {
		b.Fatal(err)
	}
	n := p.NumVertices()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += tc.At(int64(i) % n)
	}
	_ = sink
}

// BenchmarkEdgeStatLookup measures per-edge Δ_C queries.
func BenchmarkEdgeStatLookup(b *testing.B) {
	a := benchWebFactor
	p := kron.MustProduct(a, a)
	dc, err := kron.EdgeParticipation(p)
	if err != nil {
		b.Fatal(err)
	}
	// Gather some real edges to probe.
	var us, vs []int64
	p.EachArc(func(u, v int64) bool {
		us = append(us, u)
		vs = append(vs, v)
		return len(us) < 4096
	})
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		j := i & 4095
		sink += dc.At(us[j], vs[j])
	}
	_ = sink
}

// BenchmarkMaterializeSmall measures validation-scale materialization.
func BenchmarkMaterializeSmall(b *testing.B) {
	a := gen.WebGraph(60, 3, 0.7, 3)
	p := kron.MustProduct(a, gen.HubCycle(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Materialize(100000, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKroneckerPower measures ground-truth computation for the
// k-fold powers of [3]'s construction (k = 4: ~10^13 edges).
func BenchmarkKroneckerPower(b *testing.B) {
	f := gen.WebGraph(512, 3, 0.75, 31)
	var tau int64
	for i := 0; i < b.N; i++ {
		p, err := kron.KroneckerPower(f, 4)
		if err != nil {
			b.Fatal(err)
		}
		tau, err = kron.MultiTriangleTotal(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tau), "triangles")
}

// BenchmarkAblationTriangleOrdering quantifies the DESIGN.md choice of
// the degree-ordered forward algorithm over the unordered node iterator:
// same exact outputs, different wedge-check budgets.
func BenchmarkAblationTriangleOrdering(b *testing.B) {
	g := benchWebFactor
	b.Run("forward", func(b *testing.B) {
		var wedges int64
		for i := 0; i < b.N; i++ {
			wedges = triangle.Count(g).WedgeChecks
		}
		b.ReportMetric(float64(wedges), "wedge_checks")
	})
	b.Run("node-iterator", func(b *testing.B) {
		var wedges int64
		for i := 0; i < b.N; i++ {
			wedges = triangle.CountNodeIterator(g).WedgeChecks
		}
		b.ReportMetric(float64(wedges), "wedge_checks")
	})
}

// BenchmarkAblationTrussAlgorithm compares the bucket-queue peeling
// decomposition against the paper's literal recompute-Δ-each-phase
// algorithm (the test oracle).
func BenchmarkAblationTrussAlgorithm(b *testing.B) {
	g := gen.WebGraph(1200, 4, 0.8, 12)
	b.Run("bucket-peel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = truss.Decompose(g)
		}
	})
	b.Run("naive-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = truss.NaiveDecompose(g)
		}
	})
}

// BenchmarkSampledValidation measures the cost of spot-validating a
// product far too large to materialize (the §VI workflow at scale).
func BenchmarkSampledValidation(b *testing.B) {
	a := benchWebFactor
	p := kron.MustProduct(a, a.WithAllLoops())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ValidateSampled(p, 16, 16, 1<<20, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllPassed() {
			b.Fatal("sampled validation failed")
		}
	}
	b.ReportMetric(float64(p.NumArcs()), "product_arcs")
}

// BenchmarkModelStream measures the model-agnostic generator layer on
// the acceptance workload (ER n=10^5, p=10^-3, ≈5·10^6 edges): the
// sharded streaming core, plus the streamed G(n,m), R-MAT and
// Chung–Lu cores at a comparable edge scale, and the
// cross-chunk-dependent cores — rgg2d/rgg3d (neighbor-cell
// recomputation), rhg (band/cell window regeneration) and ba (per-edge
// retracing) — at the acceptance parameters (n=10^5, r=0.005 / d=4 /
// d̄=8), plus the dependence-free lattices (grid2d/grid3d, ~2·10^5
// vertices at p=0.8). Throughput is bytes of emitted arcs (16 B/arc).
func BenchmarkModelStream(b *testing.B) {
	ctx := context.Background()
	const erN, erP, erSeed = 100_000, 0.001, 42

	streamCount := func(b *testing.B, g ModelGenerator) {
		b.Helper()
		b.ReportAllocs()
		var arcs int64
		for i := 0; i < b.N; i++ {
			var count stream.CountSink
			if _, err := Stream(ctx, ModelSource(g, 0), &count); err != nil {
				b.Fatal(err)
			}
			arcs = count.N
		}
		b.SetBytes(arcs * 16)
		b.ReportMetric(float64(arcs), "arcs/op")
	}
	// The -parallel rows run the same workload through the unified
	// pipeline with GOMAXPROCS workers: on a multi-core runner they
	// demonstrate (and the bench gate protects) the communication-free
	// scaling claim. On a single core they would silently equal the
	// serial rows and mask scaling regressions, so they skip instead.
	workers := runtime.GOMAXPROCS(0)
	streamParallel := func(b *testing.B, g ModelGenerator) {
		b.Helper()
		if workers == 1 {
			b.Skip("GOMAXPROCS=1: parallel row would duplicate the serial row and mask scaling regressions")
		}
		b.ReportAllocs()
		var arcs int64
		for i := 0; i < b.N; i++ {
			var count stream.CountSink
			if _, err := Stream(ctx, ModelSource(g, workers), &count, WithWorkers(workers)); err != nil {
				b.Fatal(err)
			}
			arcs = count.N
		}
		b.SetBytes(arcs * 16)
		b.ReportMetric(float64(arcs), "arcs/op")
	}

	b.Run("er-stream", func(b *testing.B) {
		g, err := model.NewErdosRenyi(erN, erP, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("er-parallel", func(b *testing.B) {
		g, err := model.NewErdosRenyi(erN, erP, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("gnm-stream", func(b *testing.B) {
		g, err := model.NewGnm(erN, 5_000_000, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("gnm-parallel", func(b *testing.B) {
		g, err := model.NewGnm(erN, 5_000_000, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("rmat-stream", func(b *testing.B) {
		g, err := model.NewRMAT(17, 5_000_000, 0.57, 0.19, 0.19, 0.05, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("rmat-parallel", func(b *testing.B) {
		g, err := model.NewRMAT(17, 5_000_000, 0.57, 0.19, 0.19, 0.05, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("chunglu-stream", func(b *testing.B) {
		g, err := NewGenerator("chunglu:n=100000,dmax=1000,gamma=2.1,seed=42")
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("chunglu-parallel", func(b *testing.B) {
		g, err := NewGenerator("chunglu:n=100000,dmax=1000,gamma=2.1,seed=42")
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("rgg2d-stream", func(b *testing.B) {
		g, err := model.NewRGG(100_000, 0.005, 2, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("rgg2d-parallel", func(b *testing.B) {
		g, err := model.NewRGG(100_000, 0.005, 2, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("ba-stream", func(b *testing.B) {
		g, err := model.NewBarabasiAlbert(100_000, 4, 0, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("ba-parallel", func(b *testing.B) {
		g, err := model.NewBarabasiAlbert(100_000, 4, 0, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("rgg3d-stream", func(b *testing.B) {
		g, err := model.NewRGG(100_000, 0.02, 3, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("rgg3d-parallel", func(b *testing.B) {
		g, err := model.NewRGG(100_000, 0.02, 3, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("rhg-stream", func(b *testing.B) {
		g, err := model.NewRHG(100_000, 8, 2.9, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("rhg-parallel", func(b *testing.B) {
		g, err := model.NewRHG(100_000, 8, 2.9, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("grid2d-stream", func(b *testing.B) {
		g, err := model.NewGrid(500, 400, 1, 0.8, true, 2, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("grid2d-parallel", func(b *testing.B) {
		g, err := model.NewGrid(500, 400, 1, 0.8, true, 2, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
	b.Run("grid3d-stream", func(b *testing.B) {
		g, err := model.NewGrid(60, 60, 56, 0.8, true, 3, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamCount(b, g)
	})
	b.Run("grid3d-parallel", func(b *testing.B) {
		g, err := model.NewGrid(60, 60, 56, 0.8, true, 3, erSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		streamParallel(b, g)
	})
}

// BenchmarkKernels is the one-line before/after for a model kernel
// change: each spec of the benchmark's hash-bin and geo-bin workloads
// (bench/names.go, seeds as -seed 1 derives them) streamed at one worker
// into a CountSink, so nothing but chunk generation is on the clock. Read ns/arc; compare two trees with -benchtime 3x -count 5.
// The generator is built outside the loop, so the spatial rows exclude
// per-generator set-up — the cell table behind a sync.Once is paid in
// the first iteration and amortised over b.N — which is how ROADMAP
// 1(d)'s ns/arc table missed a third of geo-bin; that part is
// internal/model's BenchmarkCellTable.
func BenchmarkKernels(b *testing.B) {
	specs := []string{
		"rmat:scale=19,seed=1000",
		"gnm:n=1000000,m=8000000,seed=1001",
		"er:n=250000,p=0.0004,seed=1002",
		"chunglu:n=4000000,dmin=8,dmax=2000,gamma=2.1,seed=1003",
		"grid2d:x=2000,y=2000,wrap=true,p=0.8,seed=1004",
		"grid3d:x=128,y=128,z=128,wrap=true,p=0.8,seed=1005",
		"ba:n=2000000,d=4,seed=1000",
		"rgg2d:n=3000000,r=0.001,seed=1001",
		"rgg3d:n=1000000,r=0.0097,seed=1002",
		"rhg:n=700000,d=16,gamma=2.9,seed=1003",
	}
	ctx := context.Background()
	for _, spec := range specs {
		b.Run(spec[:strings.IndexByte(spec, ':')], func(b *testing.B) {
			g, err := NewGenerator(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var arcs int64
			for i := 0; i < b.N; i++ {
				var count stream.CountSink
				if _, err := Stream(ctx, ModelSource(g, 1), &count, WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
				arcs = count.N
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(arcs), "ns/arc")
		})
	}
}

var _ = sparse.SumVec // keep import for metric helpers extended later
