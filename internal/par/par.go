// Package par provides the small set of shared-memory parallelism
// primitives used by the library: blocked and dynamically scheduled
// parallel loops, per-worker fan-out, and range chunking. All functions degrade gracefully to serial execution
// when the work is small or only one processor is available.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers returns the degree of parallelism used by Do and friends:
// GOMAXPROCS, but never less than 1.
func MaxWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Chunks splits the half-open range [0, n) into at most parts contiguous
// non-empty sub-ranges of near-equal size, returned as (lo, hi) pairs.
// It returns nil when n <= 0.
func Chunks(n, parts int64) [][2]int64 {
	if n <= 0 {
		return nil
	}
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int64, 0, parts)
	base := n / parts
	rem := n % parts
	lo := int64(0)
	for p := int64(0); p < parts; p++ {
		size := base
		if p < rem {
			size++
		}
		out = append(out, [2]int64{lo, lo + size})
		lo += size
	}
	return out
}

// serialCutoff is the range size below which parallel dispatch is not
// worth the goroutine overhead.
const serialCutoff = 2048

// ForBlocked runs body(lo, hi) over a partition of [0, n) into contiguous
// blocks, one block per worker. This is the preferred form when the body
// can amortize per-block setup (local buffers, accumulators).
func ForBlocked(n int64, body func(lo, hi int64)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if n < serialCutoff || workers == 1 {
		body(0, n)
		return
	}
	chunks := Chunks(n, int64(workers))
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for _, c := range chunks {
		go func(lo, hi int64) {
			defer wg.Done()
			body(lo, hi)
		}(c[0], c[1])
	}
	wg.Wait()
}

// ForDynamic runs body(i) for every i in [0, n) using dynamic scheduling
// with the given grain size: workers repeatedly claim the next block of
// grain indices. Use it when per-index cost is highly skewed (for example,
// per-vertex work proportional to degree in a power-law graph).
func ForDynamic(n, grain int64, body func(i int64)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	workers := MaxWorkers()
	if n <= grain || workers == 1 {
		for i := int64(0); i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(grain) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

// MapWorkers runs fn(worker, nWorkers) once per worker in parallel and
// waits for completion. It is the building block for algorithms that need
// explicit worker-private state (for example, sharded generation).
func MapWorkers(workers int, fn func(worker, nWorkers int)) {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if workers == 1 {
		fn(0, 1)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w, workers)
		}(w)
	}
	wg.Wait()
}
