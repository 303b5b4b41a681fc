package gio

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/stream"
)

// strconvArcs is the encoder the kernel replaced, kept as the oracle:
// the benchmark's CRC reference comes out of ArcTextWriter itself, so
// only a comparison against strconv can catch an encoder bug.
func strconvArcs(dst []byte, arcs []stream.Arc) []byte {
	for _, a := range arcs {
		dst = strconv.AppendInt(dst, a.U, 10)
		dst = append(dst, '\t')
		dst = strconv.AppendInt(dst, a.V, 10)
		dst = append(dst, '\n')
	}
	return dst
}

// encodeInBatches feeds arcs to one ArcTextWriter, size arcs per Consume.
func encodeInBatches(t testing.TB, arcs []stream.Arc, size int) []byte {
	t.Helper()
	var out bytes.Buffer
	w := NewArcTextWriter(&out)
	for len(arcs) > 0 {
		k := min(size, len(arcs))
		if err := w.Consume(arcs[:k]); err != nil {
			t.Fatal(err)
		}
		arcs = arcs[k:]
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestArcTextMatchesStrconv compares the kernel with the strconv loop
// over every digit-count boundary of int64, negative ids, and runs of
// equal U placed so that they straddle Consume calls and so that U
// changes on the first arc of a batch.
func TestArcTextMatchesStrconv(t *testing.T) {
	ids := []int64{0, math.MaxInt64, math.MaxInt64 - 1, -1, -9, -10, -99999999, -100000000, math.MinInt64, math.MinInt64 + 1}
	for p := int64(10); ; p *= 10 {
		ids = append(ids, p-1, p, p+1, -p)
		if p > math.MaxInt64/10 {
			break
		}
	}
	var arcs []stream.Arc
	// Every id as a one-arc run in both columns, then as a U run of
	// 1..9 arcs: at batch size 7 the runs start, continue and end at
	// every offset relative to a batch boundary, and at batch size 1
	// every U change is the first arc of a batch.
	for i, id := range ids {
		arcs = append(arcs, stream.Arc{U: id, V: ids[len(ids)-1-i]})
	}
	for i, id := range ids {
		for k := 0; k <= i%9; k++ {
			arcs = append(arcs, stream.Arc{U: id, V: ids[(i+k)%len(ids)]})
		}
	}
	// A sorted kron-shaped tail: runs of 14 whose U crosses 10⁸, the
	// boundary between the kernel's fast path and its general one.
	for u := int64(99999990); u < 100000010; u++ {
		for v := int64(0); v < 14; v++ {
			arcs = append(arcs, stream.Arc{U: u, V: v * 7919})
		}
	}
	want := strconvArcs(nil, arcs)
	for _, size := range []int{1, 7, 4096} {
		if got := encodeInBatches(t, arcs, size); !bytes.Equal(got, want) {
			t.Errorf("batch size %d: kernel bytes differ from strconv at offset %d", size, firstDiff(got, want))
		}
	}
	// The first arc of a fresh writer is rendered even when U is the
	// zero value the run cache starts with.
	zero := []stream.Arc{{U: 0, V: 0}, {U: 0, V: 5}}
	if got := encodeInBatches(t, zero, 1); string(got) != "0\t0\n0\t5\n" {
		t.Errorf("zero-id run rendered as %q", got)
	}
	// Appending leaves the bytes already in dst alone.
	var run tsvRun
	if got := appendArcsTSV([]byte("# head\n"), zero, &run); string(got) != "# head\n0\t0\n0\t5\n" {
		t.Errorf("append after existing bytes gave %q", got)
	}
}

// TestWriteEdgeListMatchesStrconv pins writePairs' batching around the
// kernel: a graph of several pairBatch chunks comes out as the strconv
// loop writes it, no line dropped or repeated at a chunk boundary.
func TestWriteEdgeListMatchesStrconv(t *testing.T) {
	g := gen.WebGraph(2000, 3, 0.5, 2)
	if g.NumArcs() < 3*pairBatch {
		t.Fatalf("graph has %d arcs, want at least three chunks of %d", g.NumArcs(), pairBatch)
	}
	var arcs []stream.Arc
	g.EachArc(func(u, v int32) bool {
		arcs = append(arcs, stream.Arc{U: int64(u), V: int64(v)})
		return true
	})
	var got bytes.Buffer
	if err := WriteEdgeList(&got, g); err != nil {
		t.Fatal(err)
	}
	if want := strconvArcs(nil, arcs); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteEdgeList differs from strconv at offset %d", firstDiff(got.Bytes(), want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzArcTextEncode drives random arcs through the kernel at a
// fuzz-chosen batch size: the bytes must be strconv's, and ReadArcsText
// must read the arcs back.
func FuzzArcTextEncode(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 48), uint8(2))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(3))
	f.Add(bytes.Repeat([]byte{0x00, 0xe1, 0xf5, 0x05, 0, 0, 0, 0}, 8), uint8(1)) // 10⁸ in both columns
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		arcs := arcsFromData(data)
		// Halve the distinct sources so equal-U runs occur.
		for i := range arcs {
			if i > 0 && arcs[i].V&1 == 0 {
				arcs[i].U = arcs[i-1].U
			}
		}
		got := encodeInBatches(t, arcs, int(size)+1)
		if want := strconvArcs(nil, arcs); !bytes.Equal(got, want) {
			t.Fatalf("kernel bytes differ from strconv at offset %d", firstDiff(got, want))
		}
		back, err := ReadArcsText(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("kernel output failed to parse: %v", err)
		}
		if len(back) != len(arcs) {
			t.Fatalf("read back %d arcs, wrote %d", len(back), len(arcs))
		}
		for i := range arcs {
			if back[i] != arcs[i] {
				t.Fatalf("arc %d read back as %v, wrote %v", i, back[i], arcs[i])
			}
		}
	})
}

// BenchmarkArcTextWriter is the encode layer alone, into io.Discard, on
// the two shapes that bracket the run cache: kron-shaped (sorted, 64
// arcs per source — what kron-tsv writes) and uniformly random ids (a
// new prefix on every arc).
func BenchmarkArcTextWriter(b *testing.B) {
	const arcs = 1 << 18
	for _, shape := range []struct {
		name string
		arc  func(i int, r *rand.Rand) stream.Arc
	}{
		{"kron", func(i int, r *rand.Rand) stream.Arc { return stream.Arc{U: int64(i / 64), V: int64(r.Intn(1 << 19))} }},
		{"random", func(i int, r *rand.Rand) stream.Arc { return stream.Arc{U: r.Int63n(1 << 40), V: r.Int63n(1 << 40)} }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			in := make([]stream.Arc, arcs)
			for i := range in {
				in[i] = shape.arc(i, r)
			}
			b.SetBytes(int64(len(strconvArcs(nil, in))))
			w := NewArcTextWriter(io.Discard)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < arcs; lo += stream.DefaultBatchSize {
					if err := w.Consume(in[lo : lo+stream.DefaultBatchSize]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
