// Package stream defines the batched edge-streaming primitives shared by
// the generation pipeline: kron produces Arc batches, distgen partitions
// them into communication-free shards, gio serializes them, and the driver
// in this package fans shards out across workers while keeping the output
// order deterministic and independent of the worker count.
//
// The unit of work is a batch — a reused []Arc of a few thousand arcs —
// instead of a per-arc closure call. Batching amortizes callback and
// channel overhead to ~1/|batch| per arc, which is what makes the
// "as fast as the hardware allows" generation path possible: the inner
// loops of the generator append into a flat buffer and the consumers
// (counting, writing, checking) iterate flat buffers.
package stream

import "kronvalid/internal/par"

// Arc is one directed product edge (u, v). The memory layout is two
// int64s, so a batch is a flat 16·len buffer that serializers can walk
// without per-arc indirection.
type Arc struct {
	U, V int64
}

// DefaultBatchSize is the number of arcs per batch when Options does not
// override it. 4096 arcs = 64 KiB per batch: large enough to amortize
// callback/channel overhead, small enough to stay cache- and pool-friendly.
const DefaultBatchSize = 4096

// Sink consumes a stream of arc batches. Consume may retain nothing: the
// batch slice is recycled by the driver as soon as Consume returns. A sink
// that returns an error stops the stream; Flush is still called exactly
// once at the end of the stream (error or not) so buffered output and
// final checks are reported consistently.
type Sink interface {
	Consume(batch []Arc) error
	Flush() error
}

// ForkSink is the optional Sink extension for sinks whose result does
// not depend on seeing the stream as one sequence — a count, an order
// check, a histogram of runs. The driver gives such a sink one fork per
// shard, feeds each fork its shard on the goroutine that generates it,
// and joins the forks in shard order, so no batch crosses goroutines;
// every other sink gets the ordered delivery its bytes need. The result
// must be what Consume-ing the concatenated shards would have left.
type ForkSink interface {
	Sink
	// Fork returns a fresh sink of the same kind for one shard's arcs,
	// or nil when this sink cannot split (the driver then delivers in
	// order). The fork is consumed and flushed by one goroutine.
	Fork() Sink
	// Join folds forks into the receiver. parts are consecutive shards
	// from shard 0 on, in shard order, each one returned by Fork and
	// flushed; when the stream failed they end at the failing shard, so
	// that a fault Join alone can see (one on a shard boundary) is still
	// reported if it comes first. Join is called at most once, before
	// the receiver's Flush, and not at all after a cancellation.
	Join(parts []Sink) error
}

// Source is the unified contract of every communication-free sharded
// generator — the one abstraction the whole pipeline (ordered streaming,
// sharded writing, one- and two-pass CSR construction) is verbed over.
// Implementations guarantee:
//
//   - replayability: EachShardBatch(w) is a pure function of the source
//     and w — any worker can regenerate any shard at any time, and both
//     passes of a two-pass consumer replay identical bytes;
//   - canonical order: shard w emits only arcs whose source vertex lies
//     in VertexRange(w), in strictly increasing lexicographic (U, V)
//     order, ranges are disjoint and non-decreasing in w, and
//     concatenating shards 0..Shards()-1 yields the source's canonical
//     stream — byte-identical for every shard and worker count;
//   - identity: Name() is a stable spec string that fully reproduces the
//     stream (it is recorded in shard manifests and digestable).
//
// Both the Kronecker plan (distgen.Plan) and the random-model plan
// (model.Plan) satisfy it.
type Source interface {
	// Name returns the stable, digestable identity of the stream.
	Name() string
	// NumVertices returns the vertex-id space [0, n) of the stream.
	NumVertices() int64
	// TotalArcs returns the exact total arc count, or -1 when it is only
	// known in expectation.
	TotalArcs() int64
	// Shards returns the number of shards.
	Shards() int
	// ShardSize returns the exact arc count of shard w, or -1 when
	// unknown ahead of generation.
	ShardSize(w int) int64
	// VertexRange returns the half-open source-vertex range owned by
	// shard w.
	VertexRange(w int) (lo, hi int64)
	// EachShardBatch streams shard w under the ShardGen emit contract.
	EachShardBatch(w int, buf []Arc, emit func(full []Arc) (next []Arc))
}

// ShardGen generates shard w of a partitioned arc stream in that shard's
// deterministic order. The generator fills buf (len 0, fixed capacity) and
// hands every full batch — and the final partial one — to emit; emit takes
// ownership of the slice and returns the next buffer to fill, or nil to
// stop generation early.
type ShardGen func(w int, buf []Arc, emit func(full []Arc) (next []Arc))

// GenFactory produces ShardGens bound to per-worker state. The driver
// calls it once per worker goroutine; the returned ShardGen then
// executes every shard that worker claims, so state it closes over —
// dependency-cell caches, memo tables, kernel scratch — lives for the
// worker's lifetime instead of being rebuilt per shard. The factory
// must be safe for concurrent calls; each returned ShardGen is used by
// one goroutine at a time. Worker state may only change the cost of
// generation, never its bytes: the canonical stream stays identical
// whether a driver uses the factory or a single shared ShardGen.
type GenFactory func() ShardGen

// FactorySource is the optional Source extension for generators with
// reusable worker-lifetime state: drivers that see it call
// ShardGenFactory once per worker instead of sharing one stateless
// ShardGen across all of them.
type FactorySource interface {
	Source
	// ShardGenFactory returns the source's per-worker generator factory.
	ShardGenFactory() GenFactory
}

// Options configures the parallel driver.
type Options struct {
	// Workers bounds the number of concurrently generating shards.
	// 0 means par.MaxWorkers() (GOMAXPROCS).
	Workers int
	// BatchSize is the number of arcs per batch; 0 means DefaultBatchSize.
	BatchSize int
	// Buffer is the number of batches each in-flight shard may queue ahead
	// of the consumer; 0 means 4.
	Buffer int
	// Progress, when non-nil, is invoked by the driver with the
	// cumulative number of arcs delivered and shards completed, after
	// each batch and each shard completion: from the consuming goroutine
	// on the ordered path, serialized across the workers on the
	// order-free one. It must be cheap — it runs once per batch, not per
	// arc.
	Progress func(arcs, shardsDone int64)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = par.MaxWorkers()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Buffer <= 0 {
		o.Buffer = 4
	}
	return o
}
