package gio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"strings"

	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

// writeSize is the least either arc writer hands to one Write. On ext4,
// writes of one TSV batch's ≈ 46 KB cost the kernel ≈ 1.5× as much per
// byte as writes of 256 KiB and leave a file ≈ 2× as slow to unlink;
// larger writes gain nothing more (DESIGN.md §2, "Writes of at least
// 256 KiB").
const writeSize = 256 << 10

// arcWriter is the write policy both arc writers share: encoded batches
// accumulate in buf, which goes to w in one Write once it holds at least
// writeSize bytes, and Flush writes the rest. A write error stops the
// stream (Consume and Flush keep returning it, and nothing more is
// written) and is never masked by a later Flush.
type arcWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// filled writes the buffer out once it holds at least writeSize bytes
// and reports the sticky error: every Consume ends with it.
func (a *arcWriter) filled() error {
	if len(a.buf) >= writeSize {
		a.write()
	}
	return a.err
}

// Flush writes whatever is buffered and reports any write error.
func (a *arcWriter) Flush() error {
	if len(a.buf) > 0 {
		a.write()
	}
	return a.err
}

// write hands the buffer to w and empties it, whether or not w fails:
// after an error Consume appends nothing, so nothing is written again.
func (a *arcWriter) write() {
	if _, err := a.w.Write(a.buf); err != nil {
		a.err = err
	}
	a.buf = a.buf[:0]
}

// ArcTextWriter is a stream.Sink that serializes arc batches as "u\tv\n"
// lines. Batches are rendered by appendArcsTSV into one reused byte
// buffer — no per-arc Fprintf, no per-arc syscalls — and the buffer goes
// to the underlying writer in writes of at least 256 KiB. Output is
// buffered until Flush: the last part of a stream reaches the writer
// only when Flush is called. A write error is sticky (arcWriter).
type ArcTextWriter struct {
	arcWriter
	run tsvRun
}

// NewArcTextWriter returns a text sink writing to w.
func NewArcTextWriter(w io.Writer) *ArcTextWriter {
	return &ArcTextWriter{arcWriter: arcWriter{w: w}}
}

// Consume renders one batch, writing the buffer out once it holds at
// least 256 KiB.
func (t *ArcTextWriter) Consume(batch []stream.Arc) error {
	if t.err != nil {
		return t.err
	}
	if t.buf == nil {
		// One allocation for what accumulates before a write plus one
		// more batch, instead of growing into it.
		t.buf = make([]byte, 0, writeSize+len(batch)*maxArcLine+lineWindow)
	}
	t.buf = appendArcsTSV(t.buf, batch, &t.run)
	return t.filled()
}

// ArcBinaryWriter is a stream.Sink that serializes arc batches as
// little-endian (uint64, uint64) pairs, 16 bytes per arc — the compact
// format large-scale harnesses ingest. Like ArcTextWriter it reaches the
// underlying writer in writes of at least 256 KiB, and output is
// buffered until Flush.
type ArcBinaryWriter struct {
	arcWriter
}

// NewArcBinaryWriter returns a binary sink writing to w.
func NewArcBinaryWriter(w io.Writer) *ArcBinaryWriter {
	return &ArcBinaryWriter{arcWriter{w: w}}
}

// Consume encodes one batch, writing the buffer out once it holds at
// least 256 KiB.
func (b *ArcBinaryWriter) Consume(batch []stream.Arc) error {
	if b.err != nil {
		return b.err
	}
	need := len(batch) * 16
	if b.buf == nil {
		b.buf = make([]byte, 0, writeSize+need)
	}
	n := len(b.buf)
	b.buf = slices.Grow(b.buf, need)[:n+need]
	out := b.buf[n:]
	for _, a := range batch {
		binary.LittleEndian.PutUint64(out, uint64(a.U))
		binary.LittleEndian.PutUint64(out[8:], uint64(a.V))
		out = out[16:]
	}
	return b.filled()
}

// ReadArcsText parses "u<sep>v" lines (tab or spaces) written by
// ArcTextWriter back into arcs, ignoring blank lines and lines starting
// with '#' or '%'. It is the inverse of the text sink for any int64
// vertex ids (no range restriction — the caller knows its vertex space).
func ReadArcsText(r io.Reader) ([]stream.Arc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []stream.Arc
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("gio: arcs line %d: want two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: arcs line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: arcs line %d: %w", lineNo, err)
		}
		out = append(out, stream.Arc{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: reading arcs: %w", err)
	}
	return out, nil
}

// ReadArcsBinary parses little-endian (uint64, uint64) arc records
// written by ArcBinaryWriter. A trailing partial record is a truncation
// error (wrapping io.ErrUnexpectedEOF), never a silently short list.
func ReadArcsBinary(r io.Reader) ([]stream.Arc, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var out []stream.Arc
	var buf [16]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("gio: truncated arc record %d: %w", len(out), eofAsUnexpected(err))
		}
		out = append(out, stream.Arc{
			U: int64(binary.LittleEndian.Uint64(buf[0:8])),
			V: int64(binary.LittleEndian.Uint64(buf[8:16])),
		})
	}
}

// GraphDigest returns a short stable fingerprint of a factor graph's
// structure (vertex count, adjacency, labels): FNV-1a over the canonical
// arc stream, hex-encoded. Shard manifests record the factors' digests so
// a reader can verify it regenerates from the same factors.
func GraphDigest(g *graph.Graph) string {
	h := fnv.New64a()
	var scratch [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	put(uint64(g.NumVertices()))
	put(uint64(g.NumArcs()))
	g.EachArc(func(u, v int32) bool {
		put(uint64(uint32(u))<<32 | uint64(uint32(v)))
		return true
	})
	if g.IsLabeled() {
		put(uint64(g.NumLabels()))
		for _, l := range g.Labels() {
			put(uint64(uint32(l)))
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
