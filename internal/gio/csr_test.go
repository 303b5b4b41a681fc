package gio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"kronvalid/internal/csr"
	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

// sinkCSR builds a csr.Graph from explicit canonical-order arcs via the
// one-pass accumulator.
func sinkCSR(t *testing.T, n int64, arcs []stream.Arc) *csr.Graph {
	t.Helper()
	s := csr.NewSink(n, int64(len(arcs)))
	if err := s.Consume(arcs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testCSR(t *testing.T) *csr.Graph {
	return sinkCSR(t, 9, []stream.Arc{
		{U: 0, V: 2}, {U: 0, V: 7},
		{U: 3, V: 0}, {U: 3, V: 3}, {U: 3, V: 8},
		{U: 8, V: 1},
	})
}

func TestCSRRoundTrip(t *testing.T) {
	g := testCSR(t)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("CSR round trip changed the graph")
	}
	if CSRDigest(back) != CSRDigest(g) {
		t.Fatal("CSR round trip changed the digest")
	}
}

func TestCSRRoundTripEmpty(t *testing.T) {
	g := sinkCSR(t, 4, nil)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("empty CSR round trip changed the graph")
	}
}

// TestReadCSRTruncated chops a valid serialization at every prefix
// length: each must fail with an error wrapping io.ErrUnexpectedEOF, and
// none may return a graph.
func TestReadCSRTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSR(&buf, testCSR(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		g, err := ReadCSR(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error: %v", cut, len(data), g)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSR(&buf, testCSR(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Out-of-range neighbor in the last arc word.
	bad = append([]byte(nil), data...)
	bad[len(bad)-2] = 0xff
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}

	// Implausible vertex count.
	bad = append([]byte(nil), data...)
	for i := 8; i < 16; i++ {
		bad[i] = 0xff
	}
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible size accepted")
	}
}

// TestReadCSRHugeHeaderDoesNotAllocate: a corrupt header declaring
// near-cap counts over a tiny body must fail on the truncated read —
// allocation is bounded by the bytes actually present, never by the
// header's claim.
func TestReadCSRHugeHeaderDoesNotAllocate(t *testing.T) {
	data := append([]byte(nil), csrMagic[:]...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1<<47)  // n: plausible per the cap
	binary.LittleEndian.PutUint64(hdr[8:16], 1<<47) // arcs
	data = append(data, hdr[:]...)
	data = append(data, make([]byte, 1024)...) // tiny body
	g, err := ReadCSR(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("huge-header input parsed: %v", g)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
	}
}

// TestCSRDigestMatchesGraphDigest pins the compatibility contract: for an
// unlabeled graph that exists in both representations, the CSR digest
// equals the factor digest.
func TestCSRDigestMatchesGraphDigest(t *testing.T) {
	fg := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: 3, V: 3}, {U: 4, V: 0}}, true)
	var arcs []stream.Arc
	fg.EachArc(func(u, v int32) bool {
		arcs = append(arcs, stream.Arc{U: int64(u), V: int64(v)})
		return true
	})
	cg := sinkCSR(t, int64(fg.NumVertices()), arcs)
	if got, want := CSRDigest(cg), GraphDigest(fg); got != want {
		t.Fatalf("CSRDigest = %s, GraphDigest = %s", got, want)
	}
}

func TestCSRDigestDistinguishes(t *testing.T) {
	g1 := sinkCSR(t, 4, []stream.Arc{{U: 0, V: 1}})
	g2 := sinkCSR(t, 4, []stream.Arc{{U: 0, V: 2}})
	g3 := sinkCSR(t, 5, []stream.Arc{{U: 0, V: 1}})
	if CSRDigest(g1) == CSRDigest(g2) || CSRDigest(g1) == CSRDigest(g3) {
		t.Fatal("digest collision on tiny distinct graphs")
	}
	if CSRDigest(g1) != CSRDigest(g1) {
		t.Fatal("digest not deterministic")
	}
}

func TestArcsTextRoundTrip(t *testing.T) {
	arcs := []stream.Arc{{U: 0, V: 5}, {U: 12345678901, V: -3}, {U: 7, V: 7}}
	var buf bytes.Buffer
	w := NewArcTextWriter(&buf)
	if err := w.Consume(arcs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArcsText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(arcs) {
		t.Fatalf("got %d arcs, want %d", len(back), len(arcs))
	}
	for i := range arcs {
		if back[i] != arcs[i] {
			t.Fatalf("arc %d = %v, want %v", i, back[i], arcs[i])
		}
	}
}

func TestReadArcsTextRejectsGarbage(t *testing.T) {
	for _, in := range []string{"1\n", "a\tb\n", "1\t2\t3\n", "9223372036854775808\t0\n"} {
		if _, err := ReadArcsText(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
	// Comments and blanks are skipped.
	arcs, err := ReadArcsText(bytes.NewReader([]byte("# header\n\n%x\n1\t2\n")))
	if err != nil || len(arcs) != 1 || arcs[0] != (stream.Arc{U: 1, V: 2}) {
		t.Fatalf("got %v, %v", arcs, err)
	}
}

func TestArcsBinaryRoundTripAndTruncation(t *testing.T) {
	arcs := []stream.Arc{{U: 1, V: 2}, {U: 3, V: 4}, {U: 1 << 40, V: 9}}
	var buf bytes.Buffer
	w := NewArcBinaryWriter(&buf)
	if err := w.Consume(arcs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	back, err := ReadArcsBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range arcs {
		if back[i] != arcs[i] {
			t.Fatalf("arc %d = %v, want %v", i, back[i], arcs[i])
		}
	}
	for cut := 1; cut < 16; cut++ {
		_, err := ReadArcsBinary(bytes.NewReader(data[:len(data)-cut]))
		if err == nil {
			t.Fatalf("truncation by %d bytes accepted", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation by %d bytes: %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadGraphBinaryTruncated chops a valid factor serialization at
// every prefix: no prefix may parse, and every failure must wrap
// io.ErrUnexpectedEOF (the "silently short graph" regression guard).
func TestReadGraphBinaryTruncated(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 5}, {U: 5, V: 5}}, true)
	labels := []int32{0, 1, 0, 1, 0, 1}
	for name, gg := range map[string]*graph.Graph{"plain": g, "labeled": g.WithLabels(labels, 2)} {
		var buf bytes.Buffer
		if err := WriteGraphBinary(&buf, gg); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for cut := 0; cut < len(data); cut++ {
			got, err := ReadGraphBinary(bytes.NewReader(data[:cut]))
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes parsed as %v", name, cut, len(data), got)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: prefix of %d bytes: %v does not wrap io.ErrUnexpectedEOF", name, cut, err)
			}
		}
	}
}
