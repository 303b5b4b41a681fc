package kron

import (
	"slices"
	"testing"
	"testing/quick"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

// leftFold returns the two-factor product Materialize(F₀ ⊗ … ⊗ F_{k−2}) ⊗
// F_{k−1}, which has the same vertex ids, arcs and statistics as the
// k-fold product of the same factors.
func leftFold(t *testing.T, factors ...*graph.Graph) *Product {
	t.Helper()
	l, err := MustProduct(factors[:len(factors)-1]...).Materialize(1<<20, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	return MustProduct(l, factors[len(factors)-1])
}

// TestMultiProductMatchesBinaryProduct: every probe of a three-factor
// product agrees with the two-factor product of its left fold.
func TestMultiProductMatchesBinaryProduct(t *testing.T) {
	g := rng.New(71)
	for trial := 0; trial < 8; trial++ {
		a := randomUndirected(g, 3+g.Intn(4), 3, g.Float64()*0.5)
		b := randomUndirected(g, 3+g.Intn(4), 3, g.Float64()*0.5)
		c := randomUndirected(g, 3+g.Intn(4), 3, g.Float64()*0.5)
		multi := MustProduct(a, b, c)
		bin := leftFold(t, a, b, c)
		if multi.NumVertices() != bin.NumVertices() || multi.NumArcs() != bin.NumArcs() || multi.NumLoops() != bin.NumLoops() {
			t.Fatal("size mismatch with binary product")
		}
		n := multi.NumVertices()
		for v := int64(0); v < n; v++ {
			if multi.Degree(v) != bin.Degree(v) || multi.OutDegreeRaw(v) != bin.OutDegreeRaw(v) || multi.HasLoop(v) != bin.HasLoop(v) {
				t.Fatalf("degree(%d): %d vs %d", v, multi.Degree(v), bin.Degree(v))
			}
			if !sparse.EqualVec(multi.Neighbors(v), bin.Neighbors(v)) {
				t.Fatalf("Neighbors(%d): %v vs %v", v, multi.Neighbors(v), bin.Neighbors(v))
			}
		}
		for s := 0; s < 200; s++ {
			u, v := g.Int64n(n), g.Int64n(n)
			if multi.HasEdge(u, v) != bin.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) disagrees", u, v)
			}
		}
		d1, v1 := multi.MaxDegree()
		d2, _ := bin.MaxDegree()
		if d1 != d2 || multi.Degree(v1) != d1 {
			t.Fatalf("MaxDegree = %d at %d (degree %d), binary says %d", d1, v1, multi.Degree(v1), d2)
		}
	}
}

func TestMultiProductIndexRoundTrip(t *testing.T) {
	p := MustProduct(gen.Clique(3), gen.Cycle(4), gen.Path(5))
	if p.NumVertices() != 60 || p.K() != 3 {
		t.Fatalf("NumVertices = %d, K = %d", p.NumVertices(), p.K())
	}
	for v := int64(0); v < 60; v++ {
		if got := p.Vertex(p.FactorsOf(v)...); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
	if got := p.Vertex(2, 1, 3); got != 2*20+1*5+3 {
		t.Fatalf("Vertex(2,1,3) = %d", got)
	}
}

// TestMultiEachArcMatchesMaterialized: for k = 1..4 factors, with and
// without loops, the stream is strictly increasing in (u, v), holds
// NumArcs arcs, and equals the explicit left-nested Kronecker product.
func TestMultiEachArcMatchesMaterialized(t *testing.T) {
	plain := []*graph.Graph{gen.Clique(3), gen.Cycle(4), gen.HubCycle(3), gen.Path(3)}
	looped := []*graph.Graph{gen.Clique(3).WithAllLoops(), gen.Cycle(4).WithLoopAt(1), gen.CliqueWithLoops(2), gen.Path(3).WithAllLoops()}
	for _, factors := range [][]*graph.Graph{plain, looped} {
		for k := 1; k <= len(factors); k++ {
			p := MustProduct(factors[:k]...)
			var arcs [][2]int64
			p.EachArc(func(u, v int64) bool {
				if n := len(arcs); n > 0 {
					if prev := arcs[n-1]; u < prev[0] || (u == prev[0] && v <= prev[1]) {
						t.Fatalf("k=%d: arc (%d,%d) after (%d,%d)", k, u, v, prev[0], prev[1])
					}
				}
				arcs = append(arcs, [2]int64{u, v})
				return true
			})
			if int64(len(arcs)) != p.NumArcs() {
				t.Fatalf("k=%d: streamed %d arcs, want %d", k, len(arcs), p.NumArcs())
			}
			want := sparse.Adjacency(factors[0])
			for _, f := range factors[1:k] {
				want = sparse.Kron(want, sparse.Adjacency(f))
			}
			if int64(want.NNZ()) != p.NumArcs() {
				t.Fatalf("k=%d: explicit product has %d arcs, want %d", k, want.NNZ(), p.NumArcs())
			}
			for _, a := range arcs {
				if want.At(int(a[0]), int(a[1])) != 1 {
					t.Fatalf("k=%d: streamed arc (%d,%d) not in the explicit product", k, a[0], a[1])
				}
			}
		}
	}
}

func TestMultiVertexParticipationThreeFactors(t *testing.T) {
	g := rng.New(72)
	cases := []float64{0, 0.5}
	for _, loopP := range cases {
		for trial := 0; trial < 4; trial++ {
			a := randomUndirected(g, 3+g.Intn(4), 2.5, loopP)
			b := randomUndirected(g, 3+g.Intn(4), 2.5, loopP)
			c := randomUndirected(g, 3+g.Intn(4), 2.5, loopP)
			p := MustProduct(a, b, c)
			tv, err := VertexParticipation(p)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := p.Materialize(100000, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			want := triangle.Count(cg).PerVertex
			if !sparse.EqualVec(tv.Vector(), want) {
				t.Fatalf("loopP=%.1f trial %d: k-fold t_C disagrees with direct count", loopP, trial)
			}
		}
	}
}

func TestMultiTriangleTotalPowerLaw(t *testing.T) {
	// Loop-free: τ(B^{⊗k}) = 6^{k-1}·τ(B)^k.
	b := gen.WebGraph(40, 3, 0.8, 5)
	tb := triangle.Count(b).Total
	if tb == 0 {
		t.Skip("factor has no triangles at this seed")
	}
	for k := 1; k <= 3; k++ {
		p, err := KroneckerPower(b, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TriangleTotal(p)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		for i := 0; i < k; i++ {
			want *= tb
		}
		for i := 0; i < k-1; i++ {
			want *= 6
		}
		if got != want {
			t.Fatalf("k=%d: τ = %d, want 6^{k-1}·τ(B)^k = %d", k, got, want)
		}
	}
}

// TestMultiEdgeDeltaAgainstDirect: for k = 1, 2 and 3 factors, At is the
// direct Δ at every arc of the materialized product and 0 at every other
// vertex pair.
func TestMultiEdgeDeltaAgainstDirect(t *testing.T) {
	g := rng.New(73)
	for trial := 0; trial < 5; trial++ {
		a := randomUndirected(g, 3+g.Intn(4), 2.5, g.Float64()*0.6)
		b := randomUndirected(g, 3+g.Intn(4), 2.5, g.Float64()*0.6)
		c := randomUndirected(g, 3+g.Intn(3), 2.5, g.Float64()*0.6)
		for _, p := range []*Product{MustProduct(a), MustProduct(a, b), MustProduct(a, b, c)} {
			dc, err := EdgeParticipation(p)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := p.Materialize(100000, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			want := triangle.Count(cg).EdgeDelta
			n := p.NumVertices()
			for u := int64(0); u < n; u++ {
				for v := int64(0); v < n; v++ {
					var w int64
					if a := cg.ArcIndex(int32(u), int32(v)); a >= 0 {
						w = want[a]
					}
					if got := dc.At(u, v); got != w {
						t.Fatalf("trial %d, k=%d: Δ(%d,%d) = %d, direct %d", trial, p.K(), u, v, got, w)
					}
				}
			}
		}
	}
}

func TestMultiProductSingleFactorIdentity(t *testing.T) {
	// k=1: the product is the factor itself.
	b := gen.HubCycle(4)
	p := MustProduct(b)
	tv, err := VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	want := triangle.Count(b).PerVertex
	if !sparse.EqualVec(tv.Vector(), want) {
		t.Fatal("k=1 participation wrong")
	}
	if p.NumArcs() != b.NumArcs() || p.NumVertices() != int64(b.NumVertices()) {
		t.Fatal("k=1 sizes wrong")
	}
	c, err := p.Materialize(100, 1000)
	if err != nil || !c.Equal(b) {
		t.Fatalf("k=1 materialized product is not the factor (%v)", err)
	}
}

func TestMultiProductValidation(t *testing.T) {
	if _, err := NewProduct(); err == nil {
		t.Error("accepted zero factors")
	}
	if _, err := KroneckerPower(gen.Clique(3), 0); err == nil {
		t.Error("accepted power 0")
	}
	p := MustProduct(gen.Clique(3), gen.Clique(3), gen.Path(2))
	if _, err := Trussness(p); err == nil {
		t.Error("Thm. 3 accepted three factors")
	}
	if _, err := DirectedCensus(p); err == nil {
		t.Error("Thm. 4/5 accepted three factors")
	}
	if _, err := LabeledCensus(p); err == nil {
		t.Error("Thm. 6/7 accepted three factors")
	}
	if _, err := ReciprocalDegree(p); err == nil {
		t.Error("§IV.B accepted three factors")
	}
}

func TestMultiProductOverflowGuard(t *testing.T) {
	// 6 factors of 2^11 vertices = 2^66 product vertices: must overflow.
	b := gen.Clique(1 << 11)
	if _, err := NewProduct(b, b, b, b, b, b); err == nil {
		t.Error("expected overflow error")
	}
}

// TestQuickMultiMatchesBinaryParticipation: t_C and Δ_C of a three-factor
// product equal those of the two-factor product of its left fold.
func TestQuickMultiMatchesBinaryParticipation(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		a := randomUndirected(g, 2+g.Intn(4), 3, g.Float64()*0.5)
		b := randomUndirected(g, 2+g.Intn(4), 3, g.Float64()*0.5)
		c := randomUndirected(g, 2+g.Intn(4), 3, g.Float64()*0.5)
		multi, bin := MustProduct(a, b, c), leftFold(t, a, b, c)
		tm, err1 := VertexParticipation(multi)
		tb, err2 := VertexParticipation(bin)
		dm, err3 := EdgeParticipation(multi)
		db, err4 := EdgeParticipation(bin)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		cg, err := multi.Materialize(1<<20, 1<<24)
		if err != nil {
			return false
		}
		return sparse.EqualVec(tm.Vector(), tb.Vector()) && slices.Equal(arcValues(dm, cg), arcValues(db, cg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestProbesAllocateNothing: the per-vertex and per-arc probes that
// sampled validation makes O(d²) times per egonet allocate nothing, for
// two factors and for three.
func TestProbesAllocateNothing(t *testing.T) {
	a := gen.WebGraph(60, 3, 0.6, 1).WithLoopAt(3)
	b := gen.HubCycle(5).WithAllLoops()
	c := gen.CliqueWithLoops(3)
	for _, p := range []*Product{MustProduct(a, b), MustProduct(a, b, c)} {
		tc, err := VertexParticipation(p)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := EdgeParticipation(p)
		if err != nil {
			t.Fatal(err)
		}
		n := p.NumVertices()
		u, v := n/3, n/3+int64(b.NumVertices())+1
		var sink int64
		for name, probe := range map[string]func(){
			"HasEdge":        func() { sink += b2i(p.HasEdge(u, v)) },
			"HasLoop":        func() { sink += b2i(p.HasLoop(u)) },
			"Degree":         func() { sink += p.Degree(v) },
			"KronVecSum.At":  func() { sink += tc.At(u) },
			"KronMatSum.At":  func() { sink += dc.At(u, v) },
			"OutDegreeRaw":   func() { sink += p.OutDegreeRaw(u) },
			"EachNeighbor":   func() { p.EachNeighbor(u, func(w int64) bool { sink += w; return true }) },
			"EachNeighbor/0": func() { p.EachNeighbor(v, func(int64) bool { return false }) },
		} {
			if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
				t.Errorf("k=%d: %s allocates %.1f objects per call", p.K(), name, allocs)
			}
		}
		_ = sink
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
