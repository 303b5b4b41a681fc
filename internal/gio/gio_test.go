package gio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.WebGraph(50, 3, 0.5, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("edge list round trip failed")
	}
}

func TestUndirectedRoundTrip(t *testing.T) {
	g := gen.HubCycle(6)
	var buf bytes.Buffer
	if err := WriteEdgeListUndirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if int64(lines) != g.NumEdgesUndirected() {
		t.Fatalf("wrote %d lines, want %d", lines, g.NumEdgesUndirected())
	}
	back, err := ReadEdgeList(&buf, g.NumVertices(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("undirected round trip failed")
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# comment\n\n% another\n0\t1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdgesUndirected() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdgesUndirected())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 x\n", "0 99\n", "-1 0\n"}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 3, false); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := GraphStats{Name: "A⊗B", Vertices: 106099381441, Edges: 2731750692060,
		Triangles: 141000000000000, MaxDegree: 12345, Loops: 0}
	var buf bytes.Buffer
	if err := WriteStats(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip: %+v vs %+v", back, s)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	graphs := map[string]func() *graph.Graph{
		"web":      func() *graph.Graph { return gen.WebGraph(200, 3, 0.6, 4) },
		"loops":    func() *graph.Graph { return gen.HubCycle(5).WithAllLoops() },
		"directed": func() *graph.Graph { return gen.Clique(4).DirectedPart() },
		"empty":    func() *graph.Graph { return gen.Path(1) },
		"labeled": func() *graph.Graph {
			g := gen.Clique(6)
			labels := make([]int32, 6)
			for i := range labels {
				labels[i] = int32(i % 3)
			}
			return g.WithLabels(labels, 3)
		},
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			g := build()
			var buf bytes.Buffer
			if err := WriteGraphBinary(&buf, g); err != nil {
				t.Fatal(err)
			}
			back, err := ReadGraphBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(g) {
				t.Fatal("binary round trip failed")
			}
		})
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := gen.HubCycle(4)
	var buf bytes.Buffer
	if err := WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadGraphBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated.
	if _, err := ReadGraphBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt a neighbor id to an out-of-range value.
	bad2 := append([]byte(nil), data...)
	// last 4 bytes of the nbrs block (graph is unlabeled): set huge value
	copy(bad2[len(bad2)-4:], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadGraphBinary(bytes.NewReader(bad2)); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestBinaryCompression(t *testing.T) {
	// The abstract's claim in miniature: the binary factor encoding is a
	// tiny fraction of the product's edge-list size.
	g := gen.WebGraph(500, 3, 0.6, 8)
	var buf bytes.Buffer
	if err := WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	productArcs := g.NumArcs() * g.NumArcs() // C = G ⊗ G
	// Each product arc needs >= 10 bytes as text; the factor file must be
	// orders of magnitude smaller.
	if int64(buf.Len())*1000 > productArcs*10 {
		t.Errorf("factor encoding %d bytes vs product ~%d bytes: compression claim fails",
			buf.Len(), productArcs*10)
	}
}

// failAfterWriter errors once n bytes have been accepted, recording how
// many Write calls it saw.
type failAfterWriter struct {
	n      int
	calls  int
	failed bool
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.failed || f.n-len(p) < 0 {
		f.failed = true
		return 0, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

var errFull = errors.New("disk full")

func TestWriteEdgeListStopsOnFirstError(t *testing.T) {
	g := gen.WebGraph(2000, 3, 0.5, 2)
	w := &failAfterWriter{n: 1 << 16} // accept one chunk, fail on the second
	err := WriteEdgeList(w, g)
	if !errors.Is(err, errFull) {
		t.Fatalf("err = %v, want errFull", err)
	}
	callsAtFailure := w.calls
	if callsAtFailure > 3 {
		t.Fatalf("iteration continued after write error: %d write calls", w.calls)
	}
	w2 := &failAfterWriter{n: 0}
	if err := WriteEdgeListUndirected(w2, g); !errors.Is(err, errFull) {
		t.Fatalf("undirected err = %v, want errFull", err)
	}
}

func TestArcTextWriterMatchesFprintf(t *testing.T) {
	arcs := []stream.Arc{{U: 0, V: 1}, {U: 42, V: 7}, {U: 1 << 40, V: 3}, {U: -1, V: -9}}
	var got bytes.Buffer
	s := NewArcTextWriter(&got)
	if err := s.Consume(arcs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Consume(arcs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, a := range arcs {
		fmt.Fprintf(&want, "%d\t%d\n", a.U, a.V)
	}
	if got.String() != want.String() {
		t.Fatalf("text sink wrote %q, want %q", got.String(), want.String())
	}
}

// TestArcWritersStickyError: a write error comes back no later than
// Flush (both writers buffer, so their first Write may be Flush's),
// every later Consume and Flush returns it, and nothing is written after
// it.
func TestArcWritersStickyError(t *testing.T) {
	// 100 arcs stay in either writer's buffer until Flush; 1<<17 arcs
	// of "0\t0\n" are 512 KiB of text and 1<<15 arcs 512 KiB of binary,
	// so Consume itself writes and fails.
	for _, tc := range []struct {
		arcs    int
		atFlush bool // the error surfaces at Flush, not at Consume
		mk      func(w *failAfterWriter) stream.Sink
	}{
		{100, true, func(w *failAfterWriter) stream.Sink { return NewArcTextWriter(w) }},
		{1 << 17, false, func(w *failAfterWriter) stream.Sink { return NewArcTextWriter(w) }},
		{100, true, func(w *failAfterWriter) stream.Sink { return NewArcBinaryWriter(w) }},
		{1 << 15, false, func(w *failAfterWriter) stream.Sink { return NewArcBinaryWriter(w) }},
	} {
		batch, mk := make([]stream.Arc, tc.arcs), tc.mk
		fw := &failAfterWriter{n: 0}
		s := mk(fw)
		err := s.Consume(batch)
		if got := err == nil; got != tc.atFlush {
			t.Fatalf("%d arcs: Consume returned %v, want the error at Flush = %v", tc.arcs, err, tc.atFlush)
		}
		if err == nil {
			err = s.Flush()
		}
		if !errors.Is(err, errFull) {
			t.Fatalf("consume then flush: %v", err)
		}
		if err := s.Consume(batch); !errors.Is(err, errFull) {
			t.Fatal("error not sticky")
		}
		if err := s.Flush(); !errors.Is(err, errFull) {
			t.Fatal("flush masked the write error")
		}
		if fw.calls != 1 {
			t.Fatalf("writer called %d times, want 1: a write followed the error", fw.calls)
		}
	}
}

func TestArcBinaryWriterRoundTripBytes(t *testing.T) {
	arcs := []stream.Arc{{U: 1, V: 2}, {U: 1 << 50, V: 77}}
	var buf bytes.Buffer
	s := NewArcBinaryWriter(&buf)
	if err := s.Consume(arcs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes before Flush, want them buffered", buf.Len())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(arcs)*16 {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), len(arcs)*16)
	}
	if got := binary.LittleEndian.Uint64(buf.Bytes()[16:24]); got != 1<<50 {
		t.Fatalf("second arc U = %d", got)
	}
}

// TestArcBinaryWriterWriteSize: every Write but the last one, Flush's,
// carries at least 256 KiB, and the bytes are each arc's two
// little-endian words in order — for full batches and for a batch size
// that does not divide the write size.
func TestArcBinaryWriterWriteSize(t *testing.T) {
	arcs := make([]stream.Arc, 100000)
	for i := range arcs {
		arcs[i] = stream.Arc{U: int64(i / 7), V: int64(i)*2654435761 - 1<<40}
	}
	var want []byte
	for _, a := range arcs {
		want = binary.LittleEndian.AppendUint64(want, uint64(a.U))
		want = binary.LittleEndian.AppendUint64(want, uint64(a.V))
	}
	for _, size := range []int{stream.DefaultBatchSize, 1000} {
		var w writeSizes
		bw := NewArcBinaryWriter(&w)
		for lo := 0; lo < len(arcs); lo += size {
			if err := bw.Consume(arcs[lo:min(lo+size, len(arcs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(w.sizes) < 3 {
			t.Fatalf("batch %d: %d writes for %d bytes, want at least 3", size, len(w.sizes), w.Len())
		}
		for i, n := range w.sizes[:len(w.sizes)-1] {
			if n < writeSize {
				t.Errorf("batch %d: write %d of %d carries %d bytes, want at least %d", size, i, len(w.sizes), n, writeSize)
			}
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("batch %d: written bytes differ at offset %d", size, firstDiff(w.Bytes(), want))
		}
	}
}

func TestGraphDigestDistinguishesStructure(t *testing.T) {
	g1 := gen.WebGraph(64, 3, 0.5, 1)
	g2 := gen.WebGraph(64, 3, 0.5, 2)
	if GraphDigest(g1) != GraphDigest(g1) {
		t.Fatal("digest not deterministic")
	}
	if GraphDigest(g1) == GraphDigest(g2) {
		t.Fatal("different graphs share a digest")
	}
	labels := make([]int32, g1.NumVertices())
	labels[3] = 1
	if GraphDigest(g1) == GraphDigest(g1.WithLabels(labels, 2)) {
		t.Fatal("labeling did not change the digest")
	}
}
