package distgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kronvalid/internal/gio"
	"kronvalid/internal/stream"
)

// ManifestName is the filename of the shard manifest inside an output
// directory.
const ManifestName = "manifest.json"

// ShardInfo records one shard file of a sharded generation run.
type ShardInfo struct {
	Index int    `json:"index"`
	File  string `json:"file"`
	Arcs  int64  `json:"arcs"`
}

// Manifest describes a sharded edge-list directory: which generator
// produced it (a Kronecker product identified by factor digests, or any
// registered random model identified by its spec string), how it was
// partitioned, and exactly what each shard file contains. Because
// generation is deterministic, the manifest plus the generator identity
// fully reproduce every byte of every shard — and concatenating the
// shard files in index order reproduces the serial stream for any
// worker count.
type Manifest struct {
	Format string `json:"format"` // "tsv" or "binary"
	// Model identifies the generator: "kron" for Kronecker products
	// (with the factor digests below), else a model spec string such as
	// "er:n=100000,p=0.001,seed=42,chunks=64". Empty in manifests
	// written before the model-agnostic layer, which were always kron.
	Model string `json:"model,omitempty"`
	// Source is the stream.Source Name() of the generator that wrote the
	// directory — the uniform identity every source carries (kron plans
	// spell their factor digests, model plans their spec string). Empty
	// in manifests written before the unified Source API.
	Source        string      `json:"source,omitempty"`
	FactorADigest string      `json:"factor_a_digest,omitempty"`
	FactorBDigest string      `json:"factor_b_digest,omitempty"`
	Vertices      int64       `json:"vertices"`
	TotalArcs     int64       `json:"total_arcs"`
	Workers       int         `json:"workers"`
	Shards        []ShardInfo `json:"shards"`
	// Extra carries caller-supplied annotation key/values (provenance,
	// experiment tags); the writer records them verbatim and readers
	// ignore unknown keys.
	Extra map[string]string `json:"extra,omitempty"`
}

// Validate checks the structural invariants every writer-produced
// manifest satisfies: a known format, sane counts, shard entries indexed
// 0..len-1 in order with non-negative arc counts summing to the total.
// Readers reject manifests that fail it — a corrupt manifest must never
// silently describe the wrong stream.
func (m *Manifest) Validate() error {
	if m.Format != "tsv" && m.Format != "binary" {
		return fmt.Errorf("distgen: manifest format %q is not \"tsv\" or \"binary\"", m.Format)
	}
	if m.Vertices < 0 {
		return fmt.Errorf("distgen: manifest vertex count %d negative", m.Vertices)
	}
	if m.TotalArcs < 0 {
		return fmt.Errorf("distgen: manifest total arc count %d negative", m.TotalArcs)
	}
	if m.Workers != len(m.Shards) {
		return fmt.Errorf("distgen: manifest workers = %d but %d shard entries", m.Workers, len(m.Shards))
	}
	var sum int64
	for i, s := range m.Shards {
		if s.Index != i {
			return fmt.Errorf("distgen: shard entry %d has index %d", i, s.Index)
		}
		if s.Arcs < 0 {
			return fmt.Errorf("distgen: shard %d arc count %d negative", i, s.Arcs)
		}
		if s.File == "" {
			return fmt.Errorf("distgen: shard %d has no file name", i)
		}
		if filepath.Base(s.File) != s.File || s.File == "." || s.File == ".." {
			return fmt.Errorf("distgen: shard %d file %q is not a plain file name", i, s.File)
		}
		sum += s.Arcs
	}
	if sum != m.TotalArcs {
		return fmt.Errorf("distgen: shard arc counts sum to %d, manifest says %d", sum, m.TotalArcs)
	}
	return nil
}

// closableSink pairs a stream sink with the file it writes so the driver
// closes the file after the final flush.
type closableSink struct {
	stream.Sink
	f *os.File
}

func (c closableSink) Close() error { return c.f.Close() }

// shardSink annotates every error a shard's writer sink produces with
// the failing shard's index, so an I/O failure in one of many
// concurrently written files is attributable from the returned error
// alone.
type shardSink struct {
	inner closableSink
	w     int
}

func (s shardSink) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("distgen: shard %d: %w", s.w, err)
}

func (s shardSink) Consume(batch []stream.Arc) error { return s.wrap(s.inner.Consume(batch)) }
func (s shardSink) Flush() error                     { return s.wrap(s.inner.Flush()) }
func (s shardSink) Close() error                     { return s.wrap(s.inner.Close()) }

// ShardFileName returns the canonical shard file name for index w.
func ShardFileName(w int, binary bool) string {
	if binary {
		return fmt.Sprintf("shard-%03d.bin", w)
	}
	return fmt.Sprintf("shard-%03d.tsv", w)
}

// WriteShards writes every shard of the source into dir (one file per
// shard, written in parallel; binary selects the 16-byte little-endian
// arc format instead of TSV) plus a manifest.json carrying the identity
// fields of base (Model, factor digests, Extra) and the source's
// Name(), and returns the completed manifest. opts.Workers bounds how
// many shard files are written concurrently; it does not affect the
// partition, which is fixed by the source. Output is bitwise
// reproducible: the partition and each shard's byte stream depend only
// on the source, never on scheduling — and concatenating the shard
// files in index order reproduces the source's serial stream.
//
// The manifest is the directory's commit record, written last and only
// on full success: on any error — a sink write failure (reported with
// the failing shard's index) or a context cancellation — the directory
// is left without a manifest.json, so readers can never mistake partial
// shard files for a complete stream. Shard files of an earlier run into
// dir are unlinked before generation and this run's are created
// exclusively, so a failed run leaves nothing of its predecessor behind.
func WriteShards(ctx context.Context, dir string, src stream.Source, base Manifest, binary bool, opts stream.Options) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Invalidate any previous run's manifest before touching shard files:
	// if this run fails partway, a reader must find no manifest rather
	// than a stale one describing bytes we may have replaced.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// Unlink every shard file of an earlier run, whatever its worker count
	// or format: `cat shard-*` must reproduce exactly this manifest's
	// stream, and on ext4 truncating in place waits for the writeback that
	// closing the rewritten file started (DESIGN.md §3). A directory on a
	// shard name stays, and fails that shard's exclusive create below.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	shards := src.Shards()
	counts, err := stream.RunSourcePerShard(ctx, src,
		func(w int) (stream.Sink, error) {
			// O_EXCL: a file that appeared since the sweep is another writer's.
			f, ferr := os.OpenFile(filepath.Join(dir, ShardFileName(w, binary)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
			if ferr != nil {
				return nil, fmt.Errorf("distgen: shard %d: %w", w, ferr)
			}
			var s stream.Sink
			if binary {
				s = gio.NewArcBinaryWriter(f)
			} else {
				s = gio.NewArcTextWriter(f)
			}
			return shardSink{inner: closableSink{Sink: s, f: f}, w: w}, nil
		}, opts)
	if err != nil {
		return nil, err
	}
	m := &base
	m.Source = src.Name()
	m.Format = "tsv"
	if binary {
		m.Format = "binary"
	}
	m.Vertices = src.NumVertices()
	m.Workers = shards
	m.Shards = nil
	var total int64
	for w, n := range counts {
		if want := src.ShardSize(w); want >= 0 && n != want {
			return nil, fmt.Errorf("distgen: shard %d wrote %d arcs, source says %d", w, n, want)
		}
		m.Shards = append(m.Shards, ShardInfo{Index: w, File: ShardFileName(w, binary), Arcs: n})
		total += n
	}
	if want := src.TotalArcs(); want >= 0 && total != want {
		return nil, fmt.Errorf("distgen: wrote %d arcs in total, source says %d", total, want)
	}
	m.TotalArcs = total
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := commitManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// commitManifest publishes m as dir's manifest.json atomically: it is
// encoded into manifest.json.tmp and renamed into place only once fully
// written and closed, and the temp file is removed on any error — a
// failed encode or close (ENOSPC) must not leave a torn commit record.
func commitManifest(dir string, m *Manifest) (err error) {
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestName))
}

// ReadManifest parses and validates the manifest.json inside a sharded
// output directory.
func ReadManifest(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeManifest(f)
}

// DecodeManifest parses a manifest from a reader, rejecting manifests
// that fail Validate.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
