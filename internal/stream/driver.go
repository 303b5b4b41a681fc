package stream

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// RunContext drives a sharded generator into a single sink. Shards are
// generated concurrently (up to opts.Workers at a time, claimed in index
// order) and the sink ends up in the state the serial stream — shards
// 0, 1, …, shards-1 back to back — would have left it in, for every
// worker count. How it gets there depends on the sink alone:
//
//   - a ForkSink that agrees to fork (CountSink, DedupCheckSink,
//     DegreeHistogramSink, a MultiSink of those) takes the order-free
//     path: each shard feeds its own fork on the worker that generates
//     it, and the forks are joined in shard order at the end;
//   - every other sink (writers, digests, CSR accumulators, closures)
//     takes the ordered path: batches cross a channel per shard to one
//     consuming goroutine, which delivers them strictly in shard order,
//     so the byte stream the sink observes is identical for every
//     worker count — the property that makes sharded generation
//     verifiable against the serial stream.
//
// One worker or one shard runs serially on the calling goroutine.
// Returns the number of arcs consumed and the first sink error in
// stream order (generation stops early on error).
//
// Cancelling ctx stops the stream promptly — within one batch delivery —
// and RunContext returns ctx.Err(). Workers are always joined before
// returning (no goroutine outlives the call), and the sink's Flush is
// still invoked exactly once so buffered partial output is in a
// consistent state; the arc count reflects only the batches delivered
// before cancellation.
func RunContext(ctx context.Context, shards int, gen ShardGen, sink Sink, opts Options) (int64, error) {
	return runFactory(ctx, shards, func() ShardGen { return gen }, sink, opts)
}

// RunSource drives every shard of src into sink — RunContext over
// src.EachShardBatch, except that a FactorySource gets one ShardGen per
// worker goroutine, so its factory-bound state (cell caches, memo
// tables) persists across the shards that worker claims. Paths,
// cancellation, and error semantics are exactly RunContext's — worker
// state may only change the cost of generation, never its bytes.
func RunSource(ctx context.Context, src Source, sink Sink, opts Options) (int64, error) {
	return runFactory(ctx, src.Shards(), genFactoryOf(src), sink, opts)
}

// genFactoryOf returns the per-worker generator factory of src: its own
// when it is a FactorySource, else one that hands every worker the
// stateless EachShardBatch.
func genFactoryOf(src Source) GenFactory {
	if fs, ok := src.(FactorySource); ok {
		return fs.ShardGenFactory()
	}
	return func() ShardGen { return src.EachShardBatch }
}

// CountSource returns src's exact arc count: immediately when the source
// knows it ahead of generation, otherwise by driving it through a
// CountSink.
func CountSource(ctx context.Context, src Source, opts Options) (int64, error) {
	if n := src.TotalArcs(); n >= 0 {
		return n, nil
	}
	var sink CountSink
	return RunSource(ctx, src, &sink, opts)
}

// runFactory picks the path for sink (see RunContext) and is the ordered
// one: each worker goroutine calls newGen once and executes every shard
// it claims through that one ShardGen; the serial path calls newGen once
// for the whole stream.
func runFactory(ctx context.Context, shards int, newGen GenFactory, sink Sink, opts Options) (int64, error) {
	o := opts.withDefaults()
	if shards <= 0 {
		return 0, sink.Flush()
	}
	if err := ctx.Err(); err != nil {
		sink.Flush()
		return 0, err
	}
	if o.Workers == 1 || shards == 1 {
		return runSerial(ctx, shards, newGen(), sink, o)
	}
	if fs, ok := sink.(ForkSink); ok {
		if parts := forkAll(fs, shards); parts != nil {
			return runForked(ctx, newGen, fs, parts, o)
		}
	}

	chans := make([]chan []Arc, shards)
	for i := range chans {
		chans[i] = make(chan []Arc, o.Buffer)
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	// A cancelled context halts the producers immediately — even while
	// the consumer is blocked waiting on a slow shard — so cancellation
	// latency is bounded by one in-flight batch, not by the remaining
	// stream. done releases the watcher when the stream ends first.
	done := make(chan struct{})
	defer close(done)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				halt()
			case <-done:
			}
		}()
	}
	workers := o.Workers
	if workers > shards {
		workers = shards
	}
	// Batch buffers cycle producer → shard channel → consumer → free. The
	// list holds what is in flight when every shard outruns its
	// read-ahead: one buffer being filled per worker, o.Buffer queued
	// behind each, one at the consumer. Workers that race ahead over
	// many short shards allocate past that, and the surplus is dropped
	// on return.
	free := make(chan []Arc, workers*(o.Buffer+1)+1)
	getBuf := func() []Arc {
		select {
		case b := <-free:
			return b[:0]
		default:
			return make([]Arc, 0, o.BatchSize)
		}
	}
	putBuf := func(b []Arc) {
		select {
		case free <- b:
		default:
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		go func() {
			defer wg.Done()
			gen := newGen() // worker-lifetime state lives in this closure
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := int(next.Add(1) - 1)
				if w >= shards {
					return
				}
				gen(w, getBuf(), func(full []Arc) []Arc {
					select {
					case chans[w] <- full:
						return getBuf()
					case <-stop:
						return nil
					}
				})
				close(chans[w])
			}
		}()
	}

	// Consume batches in shard order. Every receive also selects on stop,
	// so a cancellation observed by the watcher wakes the consumer even
	// while it waits on a slow or never-claimed shard; producers blocked
	// in emit exit through the same stop channel, so nothing needs to be
	// drained after an abort.
	var n, shardsDone int64
	var err error
consume:
	for w := 0; w < shards; w++ {
		if err = ctx.Err(); err != nil {
			break
		}
		for {
			var batch []Arc
			var ok bool
			select {
			case batch, ok = <-chans[w]:
			case <-stop:
				err = ctx.Err()
				break consume
			}
			if !ok {
				break // shard w complete
			}
			if err = ctx.Err(); err != nil {
				break consume
			}
			if cerr := sink.Consume(batch); cerr != nil {
				err = cerr
				halt()
				break consume
			}
			n += int64(len(batch))
			putBuf(batch)
			if o.Progress != nil {
				o.Progress(n, shardsDone)
			}
		}
		shardsDone++
		if o.Progress != nil {
			o.Progress(n, shardsDone)
		}
	}
	halt()
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	return n, err
}

func runSerial(ctx context.Context, shards int, gen ShardGen, sink Sink, o Options) (int64, error) {
	buf := make([]Arc, 0, o.BatchSize)
	var n, shardsDone int64
	var err error
	for w := 0; w < shards && err == nil; w++ {
		gen(w, buf, func(full []Arc) []Arc {
			if err = ctx.Err(); err != nil {
				return nil
			}
			if cerr := sink.Consume(full); cerr != nil {
				err = cerr
				return nil
			}
			n += int64(len(full))
			if o.Progress != nil {
				o.Progress(n, shardsDone)
			}
			return full[:0]
		})
		if err == nil {
			shardsDone++
			if o.Progress != nil {
				o.Progress(n, shardsDone)
			}
		}
	}
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	return n, err
}

// RunPerShardContext drives a sharded generator with one sink per shard,
// shards running fully in parallel (no cross-shard ordering is needed
// because each shard owns its own output). sinkFor(w) is called from the
// worker goroutine that generates shard w; if the returned sink also
// implements io.Closer it is closed after Flush. Returns per-shard arc
// counts and the first error in shard order: once a shard fails, later
// shards stop within one batch and earlier ones run to completion, so
// the error does not depend on scheduling.
//
// Cancelling ctx stops every shard within one batch: shards that have
// not started are skipped, running shards stop generating, and their
// sinks are still flushed and closed so partial files are released. The
// first ctx error is reported like any shard error.
func RunPerShardContext(ctx context.Context, shards int, gen ShardGen, sinkFor func(w int) (Sink, error), opts Options) ([]int64, error) {
	counts, _, err := runShards(ctx, shards, func() ShardGen { return gen }, sinkFor, opts.withDefaults())
	return counts, err
}

// RunSourcePerShard is RunPerShardContext over every shard of src; a
// FactorySource gets one ShardGen per worker goroutine, as in RunSource.
func RunSourcePerShard(ctx context.Context, src Source, sinkFor func(w int) (Sink, error), opts Options) ([]int64, error) {
	counts, _, err := runShards(ctx, src.Shards(), genFactoryOf(src), sinkFor, opts.withDefaults())
	return counts, err
}

// forkAll returns one fork of fs per shard, or nil when fs declines.
func forkAll(fs ForkSink, shards int) []Sink {
	parts := make([]Sink, shards)
	for w := range parts {
		if parts[w] = fs.Fork(); parts[w] == nil {
			return nil
		}
	}
	return parts
}

// runForked is the order-free path of runFactory: shard w feeds parts[w]
// through runShards, then sink joins the parts — all of them, or those
// up to the first failing shard — and is flushed once.
func runForked(ctx context.Context, newGen GenFactory, sink ForkSink, parts []Sink, o Options) (int64, error) {
	counts, bad, err := runShards(ctx, len(parts), newGen, func(w int) (Sink, error) { return parts[w], nil }, o)
	var n int64
	for _, c := range counts {
		n += c
	}
	if cerr := ctx.Err(); cerr != nil {
		if err == nil {
			err = cerr
		}
	} else {
		if bad < len(parts) {
			parts = parts[:bad+1]
		}
		// A boundary fault among the joined shards precedes anything the
		// failing shard saw after its first arc.
		if jerr := sink.Join(parts); jerr != nil {
			err = jerr
		}
	}
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	return n, err
}

// runShards is the order-free worker loop, the one RunPerShardContext,
// RunSourcePerShard and runForked share: o.Workers goroutines claim
// shards in index order from one counter, and each runs its shards
// start to finish — newGen's generator and one batch buffer for the
// worker's lifetime, sinkFor(w)'s sink for shard w — so a batch never
// leaves the goroutine that filled it. It returns the per-shard arc
// counts, the index of the first shard that failed (shards when none
// did) and that shard's error.
func runShards(ctx context.Context, shards int, newGen GenFactory, sinkFor func(w int) (Sink, error), o Options) ([]int64, int, error) {
	counts := make([]int64, shards)
	errs := make([]error, shards)
	var mu sync.Mutex // serializes Progress across the workers
	var arcsTotal, shardsDone int64
	progress := func(addArcs int64, shardDone bool) {
		if o.Progress == nil {
			return
		}
		mu.Lock()
		arcsTotal += addArcs
		if shardDone {
			shardsDone++
		}
		o.Progress(arcsTotal, shardsDone)
		mu.Unlock()
	}
	// firstBad is the lowest failed shard so far. Shards above it stop;
	// shards below it were all claimed before it was and finish, so when
	// the workers are done it is the first failure in shard order.
	var firstBad atomic.Int64
	firstBad.Store(int64(shards))
	fail := func(w int, err error) {
		errs[w] = err
		for {
			cur := firstBad.Load()
			if int64(w) >= cur || firstBad.CompareAndSwap(cur, int64(w)) {
				return
			}
		}
	}
	runShard := func(w int, gen ShardGen, buf []Arc) {
		if err := ctx.Err(); err != nil {
			fail(w, err)
			return
		}
		sink, err := sinkFor(w)
		if err != nil {
			fail(w, err)
			return
		}
		cut := false // stopped for an earlier shard's failure
		gen(w, buf, func(full []Arc) []Arc {
			if cut = int64(w) > firstBad.Load(); cut {
				return nil
			}
			if err = ctx.Err(); err != nil {
				return nil
			}
			if err = sink.Consume(full); err != nil {
				return nil
			}
			counts[w] += int64(len(full))
			progress(int64(len(full)), false)
			return full[:0]
		})
		if ferr := sink.Flush(); err == nil {
			err = ferr
		}
		if c, ok := sink.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
		switch {
		case err != nil:
			fail(w, err)
		case !cut:
			progress(0, true)
		}
	}
	workers := o.Workers
	if workers > shards {
		workers = shards
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		go func() {
			defer wg.Done()
			gen := newGen() // worker-lifetime state lives in this closure
			buf := make([]Arc, 0, o.BatchSize)
			for {
				w := int(next.Add(1) - 1)
				if w >= shards || int64(w) > firstBad.Load() {
					return
				}
				runShard(w, gen, buf)
			}
		}()
	}
	wg.Wait()
	bad := int(firstBad.Load())
	if bad == shards {
		return counts, bad, nil
	}
	return counts, bad, errs[bad]
}
