package csr

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"kronvalid/internal/stream"
)

// arcsSource builds a replayable sharded Source over an explicit arc
// list: arcs are sorted canonically and partitioned into `shards`
// contiguous source-vertex ranges.
func arcsSource(n int64, arcs []stream.Arc, shards int) Source {
	sorted := append([]stream.Arc(nil), arcs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].U != sorted[b].U {
			return sorted[a].U < sorted[b].U
		}
		return sorted[a].V < sorted[b].V
	})
	if shards <= 0 {
		shards = 1
	}
	bounds := make([][2]int64, shards)
	per := (n + int64(shards) - 1) / int64(shards)
	for w := 0; w < shards; w++ {
		lo := int64(w) * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		bounds[w] = [2]int64{lo, hi}
	}
	return Source{
		NumVertices: n,
		NumArcs:     int64(len(sorted)),
		Shards:      shards,
		VertexRange: func(w int) (int64, int64) { return bounds[w][0], bounds[w][1] },
		Generate: func(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
			lo, hi := bounds[w][0], bounds[w][1]
			for _, a := range sorted {
				if a.U < lo || a.U >= hi {
					continue
				}
				buf = append(buf, a)
				if len(buf) == cap(buf) {
					if buf = emit(buf); buf == nil {
						return
					}
					buf = buf[:0]
				}
			}
			if len(buf) > 0 {
				emit(buf)
			}
		},
	}
}

func testArcs() (int64, []stream.Arc) {
	return 7, []stream.Arc{
		{U: 0, V: 1}, {U: 0, V: 3}, {U: 0, V: 6},
		{U: 2, V: 0}, {U: 2, V: 2}, {U: 2, V: 5},
		{U: 3, V: 1},
		{U: 6, V: 0}, {U: 6, V: 6},
	}
}

func TestBuildSmall(t *testing.T) {
	n, arcs := testArcs()
	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{1, 4} {
			g, err := BuildContext(context.Background(), arcsSource(n, arcs, shards),
				stream.Options{Workers: workers, BatchSize: 2})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if g.NumVertices() != n || g.NumArcs() != int64(len(arcs)) {
				t.Fatalf("shards=%d: got n=%d m=%d", shards, g.NumVertices(), g.NumArcs())
			}
			var got []stream.Arc
			g.EachArc(func(u, v int64) bool {
				got = append(got, stream.Arc{U: u, V: v})
				return true
			})
			if len(got) != len(arcs) {
				t.Fatalf("shards=%d: EachArc yielded %d arcs", shards, len(got))
			}
			for i, a := range arcs {
				if got[i] != a {
					t.Fatalf("shards=%d: arc %d = %v, want %v", shards, i, got[i], a)
				}
			}
		}
	}
}

func TestBuildDeterministicAcrossShardCounts(t *testing.T) {
	n, arcs := testArcs()
	ref, err := BuildContext(context.Background(), arcsSource(n, arcs, 1), stream.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		g, err := BuildContext(context.Background(), arcsSource(n, arcs, shards), stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(ref) {
			t.Fatalf("shards=%d: CSR differs from serial build", shards)
		}
	}
}

func TestBuildRejectsOutOfRangeShard(t *testing.T) {
	src := arcsSource(4, []stream.Arc{{U: 0, V: 1}}, 2)
	// Shard 1 claims range [2,4) but emits a source-0 arc.
	gen := src.Generate
	src.Generate = func(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		if w == 1 {
			emit(append(buf, stream.Arc{U: 0, V: 2}))
			return
		}
		gen(w, buf, emit)
	}
	if _, err := BuildContext(context.Background(), src, stream.Options{Workers: 1}); err == nil {
		t.Fatal("Build accepted a shard emitting outside its vertex range")
	}
}

func TestBuildRejectsArcCountMismatch(t *testing.T) {
	src := arcsSource(4, []stream.Arc{{U: 0, V: 1}, {U: 1, V: 2}}, 1)
	src.NumArcs = 3
	if _, err := BuildContext(context.Background(), src, stream.Options{}); err == nil {
		t.Fatal("Build accepted a source whose declared arc count disagrees with the stream")
	}
}

func TestSinkMatchesBuild(t *testing.T) {
	n, arcs := testArcs()
	ref, err := BuildContext(context.Background(), arcsSource(n, arcs, 3), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSink(n, int64(len(arcs)))
	for i := 0; i < len(arcs); i += 2 {
		end := i + 2
		if end > len(arcs) {
			end = len(arcs)
		}
		if err := s.Consume(arcs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(ref) {
		t.Fatal("sink-built CSR differs from two-pass build")
	}
}

func TestSinkRejectsDisorderAndRange(t *testing.T) {
	s := NewSink(4, 0)
	if err := s.Consume([]stream.Arc{{U: 2, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Fatal("sink accepted an out-of-order stream")
	}
	s = NewSink(4, 0)
	if err := s.Consume([]stream.Arc{{U: 0, V: 0}, {U: 0, V: 0}}); err == nil {
		t.Fatal("sink accepted a duplicate arc")
	}
	s = NewSink(4, 0)
	if err := s.Consume([]stream.Arc{{U: 0, V: 9}}); err == nil {
		t.Fatal("sink accepted an out-of-range target")
	}
	s = NewSink(4, 0)
	if _, err := s.Graph(); err == nil {
		t.Fatal("Graph() before Flush should error")
	}
}

func TestQueriesAndDegrees(t *testing.T) {
	n, arcs := testArcs()
	g, err := BuildContext(context.Background(), arcsSource(n, arcs, 2), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasArc(2, 5) || g.HasArc(2, 4) || g.HasArc(5, 0) {
		t.Fatal("HasArc answers wrong")
	}
	if got := g.ArcIndex(2, 5); got != 5 {
		t.Fatalf("ArcIndex(2,5) = %d, want 5", got)
	}
	if got := g.ArcIndex(2, 4); got != -1 {
		t.Fatalf("ArcIndex(2,4) = %d, want -1", got)
	}
	if d, v := g.MaxOutDegree(); d != 3 || v != 0 {
		t.Fatalf("MaxOutDegree = (%d,%d), want (3,0)", d, v)
	}
	wantIn := []int64{2, 2, 1, 1, 0, 1, 2}
	for v, want := range wantIn {
		if got := g.InDegrees()[v]; got != want {
			t.Fatalf("InDegrees[%d] = %d, want %d", v, got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	n, arcs := testArcs()
	g, err := BuildContext(context.Background(), arcsSource(n, arcs, 3), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if tr.NumArcs() != g.NumArcs() {
		t.Fatalf("transpose has %d arcs, want %d", tr.NumArcs(), g.NumArcs())
	}
	// Every arc flips, rows stay sorted, and double transpose restores g.
	g.EachArc(func(u, v int64) bool {
		if !tr.HasArc(v, u) {
			t.Fatalf("transpose missing arc (%d,%d)", v, u)
		}
		return true
	})
	for v := int64(0); v < n; v++ {
		row := tr.Neighbors(v)
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("transpose row %d not strictly increasing: %v", v, row)
			}
		}
	}
	if !tr.Transpose().Equal(g) {
		t.Fatal("double transpose differs from original")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New([]int64{0, 1, 1}, []int64{1}); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	cases := []struct {
		name    string
		offsets []int64
		nbrs    []int64
	}{
		{"empty offsets", nil, nil},
		{"nonzero first offset", []int64{1, 1}, []int64{0}},
		{"bad final offset", []int64{0, 2}, []int64{0}},
		{"non-monotone", []int64{0, 2, 1, 3}, []int64{0, 1, 2}},
		{"unsorted row", []int64{0, 2}, []int64{1, 0}},
		{"duplicate in row", []int64{0, 2}, []int64{1, 1}},
		{"target out of range", []int64{0, 1}, []int64{7}},
	}
	for _, c := range cases {
		if _, err := New(c.offsets, c.nbrs); err == nil {
			t.Fatalf("%s: New accepted invalid CSR", c.name)
		}
	}
}

func TestEachArcBatchRoundTrip(t *testing.T) {
	n, arcs := testArcs()
	g, err := BuildContext(context.Background(), arcsSource(n, arcs, 2), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSink(n, g.NumArcs())
	g.EachArcBatch(4, func(batch []stream.Arc) bool {
		if err := s.Consume(batch); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("EachArcBatch → Sink round trip changed the graph")
	}
}

func TestBuildEmpty(t *testing.T) {
	g, err := BuildContext(context.Background(), arcsSource(5, nil, 3), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumArcs() != 0 {
		t.Fatalf("got %v", g)
	}
	if d, v := g.MaxOutDegree(); d != 0 || v != 0 {
		t.Fatalf("MaxOutDegree on empty rows = (%d,%d)", d, v)
	}
	g2, err := BuildContext(context.Background(), Source{NumVertices: 0, NumArcs: 0, Shards: 0}, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 {
		t.Fatal("zero-vertex build")
	}
	_ = fmt.Sprintf("%v", g2)
}
