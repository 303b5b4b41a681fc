package gio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

// ArcTextWriter is a stream.Sink that serializes arc batches as "u\tv\n"
// lines. Each batch is rendered by appendArcsTSV into one reused byte
// buffer and written with a single Write call — no per-arc Fprintf, no
// per-arc syscalls. A write error stops the stream (Consume keeps
// returning it) and is never masked by a later Flush.
type ArcTextWriter struct {
	w   io.Writer
	buf []byte
	run tsvRun
	err error
}

// NewArcTextWriter returns a text sink writing to w.
func NewArcTextWriter(w io.Writer) *ArcTextWriter {
	return &ArcTextWriter{w: w}
}

// Consume renders and writes one batch.
func (t *ArcTextWriter) Consume(batch []stream.Arc) error {
	if t.err != nil {
		return t.err
	}
	t.buf = appendArcsTSV(t.buf[:0], batch, &t.run)
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
		return err
	}
	return nil
}

// Flush reports any earlier write error; all data is written eagerly.
func (t *ArcTextWriter) Flush() error { return t.err }

// ArcBinaryWriter is a stream.Sink that serializes arc batches as
// little-endian (uint64, uint64) pairs, 16 bytes per arc — the compact
// format large-scale harnesses ingest. One Write call per batch.
type ArcBinaryWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewArcBinaryWriter returns a binary sink writing to w.
func NewArcBinaryWriter(w io.Writer) *ArcBinaryWriter {
	return &ArcBinaryWriter{w: w}
}

// Consume encodes and writes one batch.
func (b *ArcBinaryWriter) Consume(batch []stream.Arc) error {
	if b.err != nil {
		return b.err
	}
	need := len(batch) * 16
	if cap(b.buf) < need {
		b.buf = make([]byte, need)
	}
	buf := b.buf[:need]
	for i, a := range batch {
		binary.LittleEndian.PutUint64(buf[i*16:], uint64(a.U))
		binary.LittleEndian.PutUint64(buf[i*16+8:], uint64(a.V))
	}
	if _, err := b.w.Write(buf); err != nil {
		b.err = err
		return err
	}
	return nil
}

// Flush reports any earlier write error; all data is written eagerly.
func (b *ArcBinaryWriter) Flush() error { return b.err }

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
