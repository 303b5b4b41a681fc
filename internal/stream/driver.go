package stream

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"kronvalid/internal/par"
)

// RunContext drives a sharded generator into a single sink. Shards are
// generated concurrently (up to opts.Workers at a time, claimed in index
// order) but their batches are delivered to the sink strictly in shard
// order 0, 1, …, shards-1 — so the byte stream a sink observes is
// identical for every worker count, the property that makes sharded
// generation verifiable against the serial stream. Returns the number of
// arcs consumed and the first sink error (generation stops early on
// error).
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

// RunSource drives every shard of src into sink through the ordered
// driver — RunContext over src.EachShardBatch, except that a
// FactorySource gets one ShardGen per worker goroutine, so its
// factory-bound state (cell caches, memo tables) persists across the
// shards that worker claims. Delivery order, cancellation, and error
// semantics are exactly RunContext's — worker state may only change the
// cost of generation, never its bytes.
func RunSource(ctx context.Context, src Source, sink Sink, opts Options) (int64, error) {
	newGen := func() ShardGen { return src.EachShardBatch }
	if fs, ok := src.(FactorySource); ok {
		newGen = fs.ShardGenFactory()
	}
	return runFactory(ctx, src.Shards(), newGen, sink, opts)
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

// runFactory is the ordered driver: each worker goroutine calls newGen
// once and executes every shard it claims through that one ShardGen; the
// serial path calls newGen once for the whole stream.
func runFactory(ctx context.Context, shards int, newGen GenFactory, sink Sink, opts Options) (int64, error) {
	o := opts.withDefaults()
	if o.Workers <= 0 {
		o.Workers = par.MaxWorkers()
	}
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
	pool := sync.Pool{New: func() any {
		s := make([]Arc, 0, o.BatchSize)
		return &s
	}}
	getBuf := func() []Arc { return (*pool.Get().(*[]Arc))[:0] }
	putBuf := func(b []Arc) { pool.Put(&b) }

	var next atomic.Int64
	workers := o.Workers
	if workers > shards {
		workers = shards
	}
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
// counts and the first error encountered in shard order (other shards
// still run to completion).
//
// Cancelling ctx stops every shard within one batch: shards that have
// not started are skipped, running shards stop generating, and their
// sinks are still flushed and closed so partial files are released. The
// first ctx error is reported like any shard error.
func RunPerShardContext(ctx context.Context, shards int, gen ShardGen, sinkFor func(w int) (Sink, error), opts Options) ([]int64, error) {
	o := opts.withDefaults()
	if o.Workers <= 0 {
		o.Workers = par.MaxWorkers()
	}
	counts := make([]int64, shards)
	errs := make([]error, shards)
	var mu sync.Mutex // serializes Progress across shard goroutines
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
	sem := make(chan struct{}, o.Workers)
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		go func(w int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			sink, err := sinkFor(w)
			if err != nil {
				errs[w] = err
				return
			}
			buf := make([]Arc, 0, o.BatchSize)
			gen(w, buf, func(full []Arc) []Arc {
				if cerr := ctx.Err(); cerr != nil {
					err = cerr
					return nil
				}
				if cerr := sink.Consume(full); cerr != nil {
					err = cerr
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
			if err == nil {
				progress(0, true)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}
