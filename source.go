package kronvalid

// The unified Source pipeline API: one verb set — Stream, ToCSR,
// WriteShards, Count, Digest — over every communication-free sharded
// generator, Kronecker products and random models alike. Each verb takes
// a context (long generations are cancellable mid-shard) and functional
// options (new knobs never break signatures). These verbs are the only
// generation entry points: every generator family is reached by building
// a Source (ParseSource from a spec string, ProductSource, ModelSource,
// or an external implementation).

import (
	"context"

	"kronvalid/internal/csr"
	"kronvalid/internal/distgen"
	"kronvalid/internal/gio"
	"kronvalid/internal/model"
	"kronvalid/internal/spec"
	"kronvalid/internal/stream"
)

// Source is the unified abstraction the whole pipeline is verbed over: a
// fixed number of communication-free, replayable shards, each emitting
// its arcs in canonical (strictly increasing lexicographic) order over a
// disjoint, non-decreasing source-vertex range, so that concatenating
// shards 0..Shards()-1 reproduces the canonical stream byte-for-byte for
// every shard and worker count. Name() is a stable identity that fully
// reproduces the stream (it is recorded in shard manifests).
//
// ProductSource and ModelSource build Sources from the two built-in
// generator families; any external generator that satisfies the contract
// plugs into the same verbs.
type Source = stream.Source

// ProductSource partitions a Kronecker product of any number of factors
// into at most `shards` communication-free shards (0 = GOMAXPROCS) by
// row blocks of all factors but the last (A-row blocks for C = A ⊗ B)
// and returns it as a pipeline Source. The shard count fixes the
// partition granularity only — the concatenated stream is identical for
// every value.
func ProductSource(p *Product, shards int) Source { return distgen.NewPlan(p, shards) }

// ModelSource groups a random model's randomness chunks into at most
// `shards` contiguous runs (0 = GOMAXPROCS) and returns it as a pipeline
// Source. Grouping never touches a random draw: the concatenated stream
// is identical for every shard count.
func ModelSource(g ModelGenerator, shards int) Source { return model.NewPlan(g, shards) }

// ParseSource builds the Source one spec string names, with at most
// `shards` shards (0 = GOMAXPROCS). A registered model spec
// ("er:n=100000,p=0.001,seed=42", "ba(n=50;d=2)") is the ModelSource of
// NewGenerator(spec). kron(a=<factor>;b=<factor>) is the ProductSource
// of its factors in the factor grammar (web, clique, file, any model
// kind, "+loops"; see MODELS.md), where a factor may itself be a
// kron(…): nesting is flattened into one product of k factors. Every
// Source built here is named by a spec: ParseSource(src.Name(), n)
// rebuilds the same stream under the same Name(). A product's name folds
// its factors from the left, kron(a=kron(a=F₀;b=F₁);b=F₂), and keeps
// each factor as written, except that a model-kind factor is spelled by
// its generator's Name().
func ParseSource(s string, shards int) (Source, error) {
	if _, isKron, _ := spec.SplitKron(s); !isKron {
		g, err := NewGenerator(s)
		if err != nil {
			return nil, err
		}
		return ModelSource(g, shards), nil
	}
	factors, name, err := spec.ParseKron(s)
	if err != nil {
		return nil, err
	}
	p, err := NewProduct(factors...)
	if err != nil {
		return nil, err
	}
	return distgen.NewPlan(p, shards).Named(name), nil
}

// Option tunes a pipeline verb. The zero configuration (no options)
// means: GOMAXPROCS workers, 4096-arc batches, 4 batches of read-ahead,
// two-pass CSR construction, TSV shard files, no progress reporting.
type Option func(*config)

type config struct {
	stream  stream.Options
	onePass bool
	binary  bool
	extra   map[string]string
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithWorkers bounds how many shards generate (or write) concurrently;
// 0 or omitted means GOMAXPROCS. It never affects the output bytes —
// that is the pipeline's central invariant.
func WithWorkers(n int) Option { return func(c *config) { c.stream.Workers = n } }

// WithBatchSize sets the arcs-per-batch of the pipeline (0 = 4096).
// Batch size affects only scheduling granularity, never the stream.
func WithBatchSize(n int) Option { return func(c *config) { c.stream.BatchSize = n } }

// WithReadAhead sets how many batches each in-flight shard may queue
// ahead of the ordered consumer (0 = 4).
func WithReadAhead(n int) Option { return func(c *config) { c.stream.Buffer = n } }

// WithTwoPass selects ToCSR's construction scheme: true (the default)
// regenerates each shard twice through the parallel count → prefix →
// scatter builder; false streams once through the ordered one-pass
// accumulator (serial consumption, but a single generation pass). The
// resulting graphs are identical either way.
func WithTwoPass(enabled bool) Option { return func(c *config) { c.onePass = !enabled } }

// WithProgress installs a progress callback invoked with the cumulative
// number of arcs processed and shards completed. It is called once per
// batch from the pipeline's consuming goroutine(s) — calls are
// serialized, but for parallel verbs (WriteShards, two-pass ToCSR) they
// may come from different goroutines over time. Keep it cheap.
func WithProgress(fn func(arcs, shards int64)) Option {
	return func(c *config) { c.stream.Progress = fn }
}

// WithBinary makes WriteShards emit 16-byte little-endian binary arcs
// instead of TSV lines.
func WithBinary(enabled bool) Option { return func(c *config) { c.binary = enabled } }

// WithManifestExtra merges annotation key/values into the manifest
// WriteShards emits (provenance, experiment tags). Keys are recorded
// verbatim; readers ignore unknown keys.
func WithManifestExtra(extra map[string]string) Option {
	return func(c *config) {
		if c.extra == nil {
			c.extra = make(map[string]string, len(extra))
		}
		for k, v := range extra {
			c.extra[k] = v
		}
	}
}

// Stream drives every shard of src through the parallel pipeline into
// sink: shards generate concurrently (bounded by WithWorkers), and the
// sink ends up as the canonical stream would have left it, for every
// worker count and batch size. A sink that needs the byte sequence
// (writers, digests, closures) observes exactly that sequence; the
// order-free ones — CountingSink, DedupCheckSink, DegreeHistogramSink,
// and a MultiSink of only those — are split per shard on the generating
// workers and merged in shard order. Returns the number of arcs
// delivered.
//
// Cancelling ctx stops the stream within one batch and returns ctx.Err();
// no goroutine outlives the call, and the sink's Flush still runs exactly
// once so partial output is consistently finalized.
func Stream(ctx context.Context, src Source, sink ArcSink, opts ...Option) (int64, error) {
	return stream.RunSource(ctx, src, sink, buildConfig(opts).stream)
}

// ToCSR materializes src's graph as CSR adjacency. By default it runs
// the two-pass parallel builder (count → prefix → scatter over the
// replayable shards, race-free by shard-owned row ranges);
// WithTwoPass(false) selects the single-generation-pass ordered
// accumulator instead. Both produce identical graphs for every worker
// count. Cancelling ctx aborts within one batch per shard and returns
// ctx.Err().
func ToCSR(ctx context.Context, src Source, opts ...Option) (*CSRGraph, error) {
	c := buildConfig(opts)
	if c.onePass {
		sink := csr.NewSink(src.NumVertices(), src.TotalArcs())
		if _, err := stream.RunSource(ctx, src, sink, c.stream); err != nil {
			return nil, err
		}
		return sink.Graph()
	}
	return csr.BuildContext(ctx, csrSourceOf(src), c.stream)
}

// csrSourceOf adapts a pipeline Source to the two-pass builder's
// contract — the Source guarantees (disjoint shard-owned vertex ranges,
// canonical order, replayability) are exactly what the builder needs.
// It starts one run of src, which both passes share.
func csrSourceOf(src Source) csr.Source {
	return csr.Source{
		NumVertices: src.NumVertices(),
		NumArcs:     src.TotalArcs(),
		Shards:      src.Shards(),
		VertexRange: src.VertexRange,
		NewGen:      stream.GenFactoryOf(src),
	}
}

// WriteShards writes src's edge list into dir as one file per shard plus
// a manifest.json recording the source's Name(), per-shard arc counts,
// and any WithManifestExtra annotations, generating shards in parallel.
// Output is bitwise reproducible, and concatenating the shard files in
// index order reproduces the canonical stream.
//
// The manifest is the directory's commit record, written last and only
// on full success: a sink write failure (reported with the failing
// shard's index in the error) or a context cancellation leaves the
// directory without a manifest.json, so partial output can never be
// mistaken for a complete stream. Shard files of an earlier run into dir
// are moved aside before generation starts and removed while it runs,
// never rewritten in place; WriteShards returns only once they are gone.
func WriteShards(ctx context.Context, dir string, src Source, opts ...Option) (*ShardManifest, error) {
	c := buildConfig(opts)
	return distgen.WriteShards(ctx, dir, src, c.extra, c.binary, c.stream)
}

// Count returns src's exact arc count: immediately when the source knows
// it ahead of generation (Kronecker products, G(n,m)), otherwise by
// streaming the source through a counting sink under the given options.
func Count(ctx context.Context, src Source, opts ...Option) (int64, error) {
	return stream.CountSource(ctx, src, buildConfig(opts).stream)
}

// Digest fingerprints src's canonical stream with the CSRDigest scheme
// without materializing anything: Digest(ctx, src) equals
// CSRDigest(ToCSR(ctx, src)) for every source, which makes it the cheap
// machine-checked identity for cross-worker-count and cross-version
// determinism checks. Sources that do not know their arc count ahead of
// generation are streamed twice (count, then hash) — replayability makes
// the two passes identical by contract.
func Digest(ctx context.Context, src Source, opts ...Option) (string, error) {
	d, _, err := gio.DigestSource(ctx, src, buildConfig(opts).stream)
	return d, err
}

// GraphDigest fingerprints a factor graph with the pipeline's FNV-1a
// scheme — the Name() identity of a ProductSource over bare graphs.
func GraphDigest(g *Graph) string { return gio.GraphDigest(g) }
