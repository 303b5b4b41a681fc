package csr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"kronvalid/internal/par"
	"kronvalid/internal/stream"
)

// Source describes a sharded arc stream the two-pass builder can replay:
// shard w emits, in canonical order, exactly the arcs whose source vertex
// lies in VertexRange(w), and the ranges of distinct shards are disjoint.
// This is the contract the communication-free generation plan already
// satisfies (distgen partitions by A-row blocks), and it is what makes
// both builder passes race-free without any locking.
type Source struct {
	// NumVertices is the vertex-id space [0, NumVertices) of the stream.
	NumVertices int64
	// NumArcs is the exact total arc count when known (it lets the
	// builder pre-size the arc array); use -1 when unknown.
	NumArcs int64
	// Shards is the number of independent shards.
	Shards int
	// VertexRange returns the half-open source-vertex range owned by
	// shard w.
	VertexRange func(w int) (lo, hi int64)
	// NewGen is the generator factory of one run of the stream, called
	// once per worker goroutine of each pass; the ShardGen it returns
	// streams every shard that worker claims under the stream.ShardGen
	// emit contract. Both passes share the one factory, so state it
	// holds for its run (rhg's point strip) is built once per build.
	NewGen stream.GenFactory
}

// BuildContext materializes the source as a CSR graph with the parallel
// two-pass scheme: a counting pass accumulates per-vertex out-degrees, a
// prefix sum turns them into row offsets, and a scatter pass regenerates
// the stream and writes each arc into its final slot. Shards run
// concurrently in both passes; because each shard owns a disjoint
// source-vertex range, its counter increments and arc writes are
// confined to rows no other shard touches — no atomics, no sorting, and
// a result identical for every worker count. opts.Workers bounds shard
// concurrency (0 = GOMAXPROCS); opts.BatchSize sets the regeneration
// batch size; opts.Progress, if set, reports the scatter pass (the one
// that assembles the graph), with calls serialized across shards.
//
// Cancelling ctx aborts whichever pass is running within one batch per
// shard, joins every worker, and returns ctx.Err(); no partially
// scattered graph is ever returned.
func BuildContext(ctx context.Context, src Source, opts stream.Options) (*Graph, error) {
	n := src.NumVertices
	if n < 0 {
		return nil, fmt.Errorf("csr: negative vertex count %d", n)
	}
	if src.Shards < 0 {
		return nil, fmt.Errorf("csr: negative shard count %d", src.Shards)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = stream.DefaultBatchSize
	}

	// Pass 1: count out-degrees. Shard-owned row ranges make the
	// increments race-free. The stream delivers each row's arcs as a
	// consecutive run, so counts accumulate per run instead of per arc —
	// one ranged-check and one memory update per row per batch.
	degrees := make([]int64, n+1) // one spare slot so degrees[1:] can become offsets
	counts := make([]int64, src.Shards)
	if err := forShards(ctx, src, workers, batch, func(w int, lo, hi int64, arcs []stream.Arc) error {
		u := int64(-1)
		var run int64
		for _, a := range arcs {
			if a.U != u {
				if u >= 0 {
					degrees[u+1] += run
				}
				if a.U < lo || a.U >= hi {
					return fmt.Errorf("csr: shard %d emitted source %d outside its range [%d,%d)", w, a.U, lo, hi)
				}
				u = a.U
				run = 0
			}
			run++
		}
		if u >= 0 {
			degrees[u+1] += run
		}
		counts[w] += int64(len(arcs))
		return nil
	}, nil); err != nil {
		return nil, err
	}

	// Prefix sum: degrees becomes the offsets array in place.
	offsets := degrees
	for v := int64(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	total := offsets[n]
	if src.NumArcs >= 0 && total != src.NumArcs {
		return nil, fmt.Errorf("csr: counting pass saw %d arcs, source declares %d", total, src.NumArcs)
	}

	// Pass 2: scatter. next tracks the write cursor per row; again only
	// the owning shard advances a given row's cursor. The cursor and the
	// row's end offset are kept in locals across each run of equal
	// sources, so the inner loop is one compare and one sequential store
	// per arc.
	nbrs := make([]int64, total)
	next := make([]int64, n)
	copy(next, offsets[:n])
	recount := make([]int64, src.Shards)
	var progMu sync.Mutex
	var progArcs, progShards int64
	progress := func(addArcs int64, shardDone bool) {
		if opts.Progress == nil {
			return
		}
		progMu.Lock()
		progArcs += addArcs
		if shardDone {
			progShards++
		}
		opts.Progress(progArcs, progShards)
		progMu.Unlock()
	}
	if err := forShards(ctx, src, workers, batch, func(w int, lo, hi int64, arcs []stream.Arc) error {
		u := int64(-1)
		var cursor, end int64
		for _, a := range arcs {
			if a.U != u {
				if u >= 0 {
					next[u] = cursor
				}
				if a.U < lo || a.U >= hi {
					return fmt.Errorf("csr: shard %d emitted source %d outside its range [%d,%d)", w, a.U, lo, hi)
				}
				u = a.U
				cursor = next[u]
				end = offsets[u+1]
			}
			if cursor == end {
				return fmt.Errorf("csr: shard %d emitted more arcs for vertex %d on the scatter pass than the counting pass saw", w, u)
			}
			nbrs[cursor] = a.V
			cursor++
		}
		if u >= 0 {
			next[u] = cursor
		}
		recount[w] += int64(len(arcs))
		progress(int64(len(arcs)), false)
		return nil
	}, func(int) { progress(0, true) }); err != nil {
		return nil, err
	}
	for w := range counts {
		if counts[w] != recount[w] {
			return nil, fmt.Errorf("csr: shard %d emitted %d arcs on the counting pass but %d on the scatter pass (source is not replayable)", w, counts[w], recount[w])
		}
	}
	return &Graph{n: n, offsets: offsets, nbrs: nbrs}, nil
}

// forShards runs consume over every batch of every shard, shards claimed
// dynamically by up to `workers` goroutines. consume is called from the
// goroutine generating shard w; the first error — or a context
// cancellation, checked once per batch — stops all generation. shardDone,
// if non-nil, is called after each shard completes without error.
func forShards(ctx context.Context, src Source, workers, batchSize int, consume func(w int, lo, hi int64, arcs []stream.Arc) error, shardDone func(w int)) error {
	if src.Shards == 0 {
		return ctx.Err()
	}
	if workers > src.Shards {
		workers = src.Shards
	}
	errs := make([]error, src.Shards)
	var nextShard atomic.Int64
	var failed atomic.Bool
	par.MapWorkers(workers, func(_, _ int) {
		gen := src.NewGen()
		buf := make([]stream.Arc, 0, batchSize)
		for {
			w := int(nextShard.Add(1) - 1)
			if w >= src.Shards || failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
			lo, hi := src.VertexRange(w)
			gen(w, buf, func(full []stream.Arc) []stream.Arc {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return nil
				}
				if err := consume(w, lo, hi, full); err != nil {
					errs[w] = err
					failed.Store(true)
					return nil
				}
				return full[:0]
			})
			if errs[w] == nil && shardDone != nil {
				shardDone(w)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sink accumulates a single canonical-order arc stream into a CSR graph
// in one pass — the ingestion path for streams that are not replayable
// (pipes, files, foreign generators). Because the canonical stream is
// sorted by source vertex, the adjacency assembles by appending: offsets
// advance monotonically and no sort is ever needed. Consume errors on any
// order violation, which doubles as a stream-integrity check. Use Graph()
// after the stream flushes.
type Sink struct {
	n       int64
	offsets []int64
	nbrs    []int64
	cur     int64 // highest source vertex seen
	prevV   int64 // last target seen for cur
	started bool
	flushed bool
	err     error
}

// NewSink returns a one-pass CSR accumulator for vertex ids in
// [0, numVertices). arcsHint pre-sizes the arc array (0 for unknown).
func NewSink(numVertices, arcsHint int64) *Sink {
	if arcsHint < 0 {
		arcsHint = 0
	}
	return &Sink{
		n:       numVertices,
		offsets: make([]int64, numVertices+1),
		nbrs:    make([]int64, 0, arcsHint),
	}
}

// Consume appends one batch, enforcing canonical (strictly increasing
// lexicographic) order and vertex-range validity.
func (s *Sink) Consume(batch []stream.Arc) error {
	if s.err != nil {
		return s.err
	}
	for _, a := range batch {
		if a.U < 0 || a.U >= s.n || a.V < 0 || a.V >= s.n {
			s.err = fmt.Errorf("csr: arc (%d,%d) out of vertex range [0,%d)", a.U, a.V, s.n)
			return s.err
		}
		if s.started && (a.U < s.cur || (a.U == s.cur && a.V <= s.prevV)) {
			s.err = fmt.Errorf("csr: stream left canonical order: (%d,%d) after (%d,%d)", a.U, a.V, s.cur, s.prevV)
			return s.err
		}
		if !s.started || a.U != s.cur {
			for r := s.rowsClosed(); r <= a.U; r++ {
				s.offsets[r] = int64(len(s.nbrs))
			}
			s.cur = a.U
			s.started = true
		}
		s.nbrs = append(s.nbrs, a.V)
		s.prevV = a.V
	}
	return nil
}

// rowsClosed returns the first row whose offset has not been written yet.
func (s *Sink) rowsClosed() int64 {
	if !s.started {
		return 0
	}
	return s.cur + 1
}

// Flush seals the offsets of all remaining rows.
func (s *Sink) Flush() error {
	if s.err != nil {
		return s.err
	}
	for r := s.rowsClosed(); r <= s.n; r++ {
		s.offsets[r] = int64(len(s.nbrs))
	}
	s.flushed = true
	return nil
}

// Graph returns the accumulated CSR. It errors if the stream failed or
// was never flushed.
func (s *Sink) Graph() (*Graph, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.flushed {
		return nil, fmt.Errorf("csr: Graph() before Flush")
	}
	return &Graph{n: s.n, offsets: s.offsets, nbrs: s.nbrs}, nil
}
