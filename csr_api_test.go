package kronvalid

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

func csrTestProduct(t *testing.T) *Product {
	t.Helper()
	a := WebGraph(300, 3, 0.7, 11)
	b := HubCycle(5)
	return MustProduct(a, b)
}

// TestBuildCSRMatchesMaterialize pins the tentpole invariant: the
// parallel two-pass CSR build reproduces exactly the adjacency of the
// materialized product.
func TestBuildCSRMatchesMaterialize(t *testing.T) {
	p := csrTestProduct(t)
	g, err := ToCSR(context.Background(), ProductSource(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != p.NumVertices() || g.NumArcs() != p.NumArcs() {
		t.Fatalf("CSR has n=%d m=%d, product says n=%d m=%d",
			g.NumVertices(), g.NumArcs(), p.NumVertices(), p.NumArcs())
	}
	c, err := p.Materialize(1<<22, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < p.NumVertices(); v++ {
		want := c.Neighbors(int32(v))
		got := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != int64(want[i]) {
				t.Fatalf("vertex %d neighbor %d: %d, want %d", v, i, got[i], want[i])
			}
		}
		if g.OutDegree(v) != p.OutDegreeRaw(v) {
			t.Fatalf("vertex %d: OutDegree %d, formula %d", v, g.OutDegree(v), p.OutDegreeRaw(v))
		}
	}
}

// TestCSRDeterministicAcrossWorkerCounts is the ingestion-side
// counterpart of the bytewise-identical-sharding guarantee: the CSR
// digest must not depend on the worker count, for either build path.
func TestCSRDeterministicAcrossWorkerCounts(t *testing.T) {
	p := csrTestProduct(t)
	ref, err := ToCSR(context.Background(), ProductSource(p, 1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := CSRDigest(ref)
	for _, workers := range []int{1, 4, 8} {
		g, err := ToCSR(context.Background(), ProductSource(p, workers), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := CSRDigest(g); got != want {
			t.Fatalf("two-pass ToCSR workers=%d: digest %s, want %s", workers, got, want)
		}
		s, err := ToCSR(context.Background(), ProductSource(p, workers), WithWorkers(workers), WithTwoPass(false))
		if err != nil {
			t.Fatal(err)
		}
		if got := CSRDigest(s); got != want {
			t.Fatalf("one-pass ToCSR workers=%d: digest %s, want %s", workers, got, want)
		}
	}
}

// TestCSRTransposeMatchesInDegreeFormula checks in-degree/transpose
// construction against the Kronecker closed form: the in-degree of
// product vertex (j, l) is indeg_A(j) · indeg_B(l).
func TestCSRTransposeMatchesInDegreeFormula(t *testing.T) {
	// A deliberately asymmetric product so in- and out-degrees differ.
	a := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 3, V: 0}}, false)
	b := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 2}}, false)
	p := MustProduct(a, b)
	g, err := ToCSR(context.Background(), ProductSource(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	inA := make([]int64, a.NumVertices())
	a.EachArc(func(_, v int32) bool { inA[v]++; return true })
	inB := make([]int64, b.NumVertices())
	b.EachArc(func(_, v int32) bool { inB[v]++; return true })

	indeg := g.InDegrees()
	tr := g.Transpose()
	for v := int64(0); v < p.NumVertices(); v++ {
		f := p.FactorsOf(v)
		want := inA[f[0]] * inB[f[1]]
		if indeg[v] != want {
			t.Fatalf("InDegrees[%d] = %d, formula %d", v, indeg[v], want)
		}
		if tr.OutDegree(v) != want {
			t.Fatalf("transpose OutDegree(%d) = %d, formula %d", v, tr.OutDegree(v), want)
		}
	}
	if !tr.Transpose().Equal(g) {
		t.Fatal("double transpose differs from the original CSR")
	}
}

// TestCSRSerializationRoundTrip drives the public WriteCSR/ReadCSR pair.
func TestCSRSerializationRoundTrip(t *testing.T) {
	p := csrTestProduct(t)
	g, err := ToCSR(context.Background(), ProductSource(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) || CSRDigest(back) != CSRDigest(g) {
		t.Fatal("public CSR round trip changed the graph")
	}
}

// TestCSRSinkIngestsWrittenStream closes the loop the subsystem exists
// for: generate → serialize → re-ingest through the one-pass sink →
// identical CSR.
func TestCSRSinkIngestsWrittenStream(t *testing.T) {
	p := csrTestProduct(t)
	g, err := ToCSR(context.Background(), ProductSource(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Stream(context.Background(), ProductSource(p, 0), NewBinaryArcSink(&buf)); err != nil {
		t.Fatal(err)
	}
	arcs, err := ReadBinaryArcs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCSRSink(p.NumVertices(), int64(len(arcs)))
	if err := sink.Consume(arcs); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := sink.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("re-ingested stream differs from the directly built CSR")
	}
}

// TestToCSRTwoPassSharesOneRun checks that the two-pass build starts one
// run of a model source for both passes and every shard: rhg in strip
// mode allocates its n-point strip once per run, so the bytes one
// ToCSR allocates at 8 shards must stay within 1.25× of 2 shards (a
// run per shard per pass allocates 16 strips against 4), and the graph
// must not depend on the shard count.
func TestToCSRTwoPassSharesOneRun(t *testing.T) {
	g, err := NewGenerator("rhg:n=262144,d=2,gamma=2.6,seed=31")
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int) (digest string, alloc uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := ToCSR(context.Background(), ModelSource(g, shards), WithWorkers(2), WithTwoPass(true))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return CSRDigest(c), after.TotalAlloc - before.TotalAlloc
	}
	build(2) // builds the cell table outside the counts
	want, alloc2 := build(2)
	got, alloc8 := build(8)
	t.Logf("bytes allocated: %d at 2 shards, %d at 8 shards", alloc2, alloc8)
	if got != want {
		t.Errorf("ToCSR digest %s at 8 shards, %s at 2", got, want)
	}
	if limit := alloc2 + alloc2/4; alloc8 > limit {
		t.Errorf("ToCSR allocated %d bytes at 8 shards, more than 1.25× the %d at 2: a run per shard?", alloc8, alloc2)
	}
}
