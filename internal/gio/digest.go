package gio

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"

	"kronvalid/internal/stream"
)

// ArcDigestSink fingerprints a canonical arc stream incrementally with
// exactly the CSRDigest scheme: FNV-1a over (vertices, arcs, packed
// arcs), hex-encoded. Because CSRDigest enumerates a CSR graph in
// canonical (U, V) order — the order every pipeline source emits — the
// streamed digest of a source equals the digest of its materialized CSR
// without ever building the graph. Both counts are hashed up front, so
// the exact arc total must be known at construction (replayable sources
// can count in a first pass).
type ArcDigestSink struct {
	h       hash.Hash64
	scratch [8]byte
	pack32  bool
	want    int64
	seen    int64
	flushed bool
}

// NewArcDigestSink returns a digest sink for a canonical stream over
// vertex ids [0, numVertices) with exactly numArcs arcs.
func NewArcDigestSink(numVertices, numArcs int64) *ArcDigestSink {
	s := &ArcDigestSink{h: fnv.New64a(), pack32: numVertices <= 1<<32, want: numArcs}
	s.put(uint64(numVertices))
	s.put(uint64(numArcs))
	return s
}

func (s *ArcDigestSink) put(v uint64) {
	binary.LittleEndian.PutUint64(s.scratch[:], v)
	s.h.Write(s.scratch[:])
}

// Consume hashes one batch.
func (s *ArcDigestSink) Consume(batch []stream.Arc) error {
	if s.pack32 {
		for _, a := range batch {
			s.put(uint64(uint32(a.U))<<32 | uint64(uint32(a.V)))
		}
	} else {
		for _, a := range batch {
			s.put(uint64(a.U))
			s.put(uint64(a.V))
		}
	}
	s.seen += int64(len(batch))
	return nil
}

// Flush verifies the stream delivered exactly the arc count the digest
// was seeded with — a mismatch would silently change the digest's
// meaning, so it is an error, not a different digest.
func (s *ArcDigestSink) Flush() error {
	if s.seen != s.want {
		return fmt.Errorf("gio: digest stream delivered %d arcs, expected %d", s.seen, s.want)
	}
	s.flushed = true
	return nil
}

// Digest returns the hex digest. Valid only after a successful Flush.
func (s *ArcDigestSink) Digest() (string, error) {
	if !s.flushed {
		return "", fmt.Errorf("gio: Digest() before Flush")
	}
	return strconv.FormatUint(s.h.Sum64(), 16), nil
}

// DigestSource fingerprints src's canonical stream with an ArcDigestSink
// and returns the digest with the stream's arc count. Sources that do
// not know their count ahead of generation are streamed twice (count,
// then hash) — replayability makes the two passes identical by contract.
func DigestSource(ctx context.Context, src stream.Source, opts stream.Options) (digest string, arcs int64, err error) {
	arcs, err = stream.CountSource(ctx, src, opts)
	if err != nil {
		return "", 0, err
	}
	sink := NewArcDigestSink(src.NumVertices(), arcs)
	if _, err := stream.RunSource(ctx, src, sink, opts); err != nil {
		return "", 0, err
	}
	digest, err = sink.Digest()
	return digest, arcs, err
}
