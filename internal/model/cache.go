package model

import "sync"

// This file holds the state the spatial models (rgg2d/rgg3d/rhg) keep
// beyond one chunk. Per generator: the splitting tree's full prefix
// table, built once by every core (cellTable). Per worker: a bounded
// dependency-cell cache, the capped descent memo that stands in for the
// table when the tree is too large to tabulate, and the reusable kernel
// scratch. Everything here affects only the cost of generation, never
// its bytes — every cached value is a pure function of (seed,
// structural id) and is recomputed verbatim on a miss. See DESIGN.md
// §2e for the byte-safety argument.

// maxCellTableSlots gates the one-shot expansion of a splitting
// tree into a flat prefix table (8 bytes/slot, ≤ 8 MiB at the cap).
// Beyond it, worker states fall back to a memoized per-descent map.
var maxCellTableSlots = 1 << 20

// maxWorkerMemoNodes caps the fallback splitMemo of one worker state;
// past it the memo is dropped wholesale (values are pure, so a rebuild
// repeats them exactly). ~16 bytes/entry ⇒ ≤ ~64 MiB resident.
const maxWorkerMemoNodes = 1 << 22

// maxFreeSamples caps the retired-sample freelist of one worker state;
// each entry keeps one cell's backing array (a few hundred bytes at
// typical occupancy) alive for reuse.
const maxFreeSamples = 256

// cellTable materializes a splitTree's full prefix table once per
// generator, on the first NewWorker call, shared read-only by every
// worker state. The build runs on par.MaxWorkers() goroutines whatever
// the caller's worker count — a one-worker run on a multi-core host
// also builds its table in parallel — and workers that arrive while it
// runs wait on the Once. get returns nil when the tree is too large to
// tabulate. Alongside the table comes an occupancy bitmap (bit c set
// iff slot c is nonempty): the sweep's emptiness checks touch one bit
// in a table 64× smaller than the prefix array, so they stay
// L1-resident across neighbor strides.
type cellTable struct {
	once sync.Once
	tab  []int64
	occ  []uint64
}

func (ct *cellTable) get(t *splitTree) []int64 {
	ct.once.Do(func() {
		if t.slots <= maxCellTableSlots {
			ct.tab, ct.occ = t.expandPrefix()
		}
	})
	return ct.tab
}

// cellSample is one cell's regenerated Sample-phase output in
// structure-of-arrays layout: column d of point i lives at cols[d][i],
// so the pair kernels stream each coordinate contiguously. start is the
// global vertex id of point 0 and cell the sample's cell index (the
// ring cache's identity check). The spatial models use 2 (rgg2d),
// 3 (rgg3d) or 4 (rhg: cos θ, sin θ, cosh r, sinh r) columns carved
// from one backing allocation, which the freelist recycles.
type cellSample struct {
	start   int64
	cell    int
	n       int
	xs      []float64
	ys      []float64
	zs      []float64
	ws      []float64
	backing []float64
}

// carve re-points the column slices at the first n*cols elements of the
// backing array. cap(backing) must cover n*cols.
func (s *cellSample) carve(start int64, n, cols int) {
	s.start, s.n = start, n
	b := s.backing[:n*cols]
	s.xs, b = b[:n:n], b[n:]
	s.ys, b = b[:n:n], b[n:]
	s.zs, s.ws = nil, nil
	if cols > 2 {
		s.zs, b = b[:n:n], b[n:]
	}
	if cols > 3 {
		s.ws = b[:n:n]
	}
}

// minSampleCap is the minimum backing capacity (in float64s) a fresh
// sample is allocated with. Rounding every backing up to at least this
// makes freelist entries interchangeable across the small occupancies
// the grids aim for — a retired empty cell's array can serve a 20-point
// cell and vice versa — at ~512 bytes per resident sample.
const minSampleCap = 64

// newCellSample allocates an n-point sample with the given column
// count backed by a single array.
func newCellSample(start int64, n, cols int) *cellSample {
	capNeed := n * cols
	if capNeed < minSampleCap {
		capNeed = minSampleCap
	}
	s := &cellSample{backing: make([]float64, n*cols, capNeed)}
	s.carve(start, n, cols)
	return s
}

// allocSample serves a sample from st's freelist when the retired
// backing array on top is large enough, allocating otherwise. A nil st
// (oracles, tests) always allocates.
func allocSample(st *spatialState, start int64, n, cols int) *cellSample {
	if st != nil {
		if k := len(st.free); k > 0 && cap(st.free[k-1].backing) >= n*cols {
			s := st.free[k-1]
			st.free = st.free[:k-1]
			s.backing = s.backing[:cap(s.backing)]
			s.carve(start, n, cols)
			return s
		}
	}
	return newCellSample(start, n, cols)
}

// spatialState is the worker state of the spatial models. One instance
// lives for a worker goroutine's lifetime and carries its dependency
// cells, split-tree lookups, and kernel scratch across every chunk the
// worker executes.
//
// The cache has two storage shapes. When the generator's forward reach
// is a bounded index window (rgg: cell+1..cell+span) or the cell space
// is small (rhg), `ring` holds samples in a direct-indexed slot array —
// slot cell % len(ring) — whose identity check is one compare, no
// hashing. All cells touched while enumerating one own cell fit in
// distinct slots by construction, so a slot collision only ever evicts
// a stale earlier cell. Otherwise `cache` is a plain map.
type spatialState struct {
	ring     []*cellSample
	ringMask int // len(ring)-1; ring length is a power of two
	cache    map[int]*cellSample
	pts      int64         // resident points across the cache
	ptsCap   int64         // eviction bound (wholesale reset past it)
	tab      []int64       // shared prefix table; nil when the tree is too large
	occ      []uint64      // shared occupancy bitmap paired with tab
	memo     splitMemo     // per-worker descent memo, used only when tab == nil
	free     []*cellSample // retired samples whose backing arrays get reused
	hits     []int32       // pair-kernel hit indices, reused per segment
	cand     []int         // forward-partner index scratch (rhg windows)
	unif     []float64     // raw-uniform scratch (rhg sampling)

	// Flattened halo of the own cell currently enumerated: the own
	// cell's points followed by every staged partner cell's, one
	// contiguous SoA segment per coordinate plus the parallel global-id
	// column. Kernels scan flat[i+1:] once per own point — one call over
	// the whole halo instead of one per partner cell. The flattening
	// copies values bit-for-bit and preserves the staged scan order, so
	// emitted arcs are identical to the per-cell segment walk.
	fxs, fys, fzs, fws []float64
	fvids              []int64
}

// resetFlat empties the flattened halo.
func (st *spatialState) resetFlat() {
	st.fxs, st.fys, st.fzs, st.fws = st.fxs[:0], st.fys[:0], st.fzs[:0], st.fws[:0]
	st.fvids = st.fvids[:0]
}

// appendFlat appends sample s's first cols coordinate columns and its
// global ids to the flattened halo. Cells are tiny at the occupancies
// the grids target, so the copy is one fused scalar pass instead of a
// memmove-backed append per column.
func (st *spatialState) appendFlat(s *cellSample, cols int) {
	k := len(st.fvids)
	n := k + s.n
	st.ensureFlat(n)
	st.fxs, st.fys, st.fvids = st.fxs[:n], st.fys[:n], st.fvids[:n]
	for j := 0; j < s.n; j++ {
		st.fxs[k+j] = s.xs[j]
		st.fys[k+j] = s.ys[j]
		st.fvids[k+j] = s.start + int64(j)
	}
	if cols > 2 {
		st.fzs = st.fzs[:n]
		for j := 0; j < s.n; j++ {
			st.fzs[k+j] = s.zs[j]
		}
	}
	if cols > 3 {
		st.fws = st.fws[:n]
		for j := 0; j < s.n; j++ {
			st.fws[k+j] = s.ws[j]
		}
	}
}

// ensureFlat grows every halo column to capacity >= n, preserving each
// column's current contents. All columns share one capacity so
// appendFlat can re-slice them without further checks.
func (st *spatialState) ensureFlat(n int) {
	c := cap(st.fvids)
	if c >= n {
		return
	}
	if c == 0 {
		c = 256
	}
	for c < n {
		c *= 2
	}
	growF := func(s []float64) []float64 {
		t := make([]float64, len(s), c)
		copy(t, s)
		return t
	}
	st.fxs, st.fys, st.fzs, st.fws = growF(st.fxs), growF(st.fys), growF(st.fzs), growF(st.fws)
	v := make([]int64, len(st.fvids), c)
	copy(v, st.fvids)
	st.fvids = v
}

// newSpatialState builds a worker state. window > 0 selects the ring
// cache with that many slots (it must cover the generator's forward
// reach: every cell read while one own cell is enumerated maps to a
// distinct slot); window <= 0 selects the map cache.
func newSpatialState(t *splitTree, ct *cellTable, ptsCap int64, window int) *spatialState {
	st := &spatialState{
		ptsCap: ptsCap,
		tab:    ct.get(t),
	}
	st.occ = ct.occ
	if window > 0 {
		// Round the slot count up to a power of two so the hot-path
		// slot computation is a mask, not an integer division. A larger
		// ring still satisfies the distinct-slot window contract.
		size := 1
		for size < window {
			size <<= 1
		}
		st.ring = make([]*cellSample, size)
		st.ringMask = size - 1
	} else {
		st.cache = map[int]*cellSample{}
	}
	if st.tab == nil {
		st.memo = splitMemo{}
	}
	return st
}

// count returns cell c's occupancy through the fastest available path.
func (st *spatialState) count(t *splitTree, c int) int64 {
	if st.tab != nil {
		return st.tab[c+1] - st.tab[c]
	}
	st.checkMemo()
	return t.countMemo(c, st.memo)
}

// prefix returns the vertex-id offset of cell c.
func (st *spatialState) prefix(t *splitTree, c int) int64 {
	if st.tab != nil {
		return st.tab[c]
	}
	st.checkMemo()
	return t.prefixMemo(c, st.memo)
}

// checkMemo bounds the fallback memo over a worker's lifetime. Memo
// values are pure functions of their node ids, so dropping the map only
// costs re-draws — the stream is unchanged.
func (st *spatialState) checkMemo() {
	if len(st.memo) > maxWorkerMemoNodes {
		st.memo = splitMemo{}
	}
}

// lookup returns the cached sample of cell, or nil on a miss.
func (st *spatialState) lookup(cell int) *cellSample {
	if st.ring != nil {
		if e := st.ring[cell&st.ringMask]; e != nil && e.cell == cell {
			return e
		}
		return nil
	}
	return st.cache[cell]
}

// hold caches a freshly sampled cell and accounts its points. In ring
// mode a slot collision retires the stale occupant — which is never a
// sample staged for the current own cell (distinct slots by the window
// contract), so its backing array is free to recycle.
func (st *spatialState) hold(cell int, s *cellSample) {
	s.cell = cell
	if st.ring != nil {
		slot := cell & st.ringMask
		if old := st.ring[slot]; old != nil {
			st.pts -= int64(old.n)
			st.retire(old)
		}
		st.ring[slot] = s
		st.pts += int64(s.n)
		return
	}
	st.cache[cell] = s
	st.pts += int64(s.n)
}

// retire pushes a sample no longer reachable from the cache onto the
// freelist for backing-array reuse.
func (st *spatialState) retire(s *cellSample) {
	if len(st.free) < maxFreeSamples {
		st.free = append(st.free, s)
	}
}

// dropOwn removes a chunk's own cell once its pairs are emitted — it
// can never be read again (forward neighbors only) — then applies the
// wholesale eviction bound: past ptsCap the whole cache is dropped.
// Wholesale (rather than LRU) eviction keeps the bound exact with no
// bookkeeping, and is byte-safe because any evicted cell a later chunk
// needs is simply regenerated with identical values. The invariant at
// the end of every own-cell iteration is pts <= ptsCap.
// Wholesale clears do NOT feed the freelist: a recycled backing array
// must never alias a sample the kernels can still read (the flattened
// halo copies values out, but the own cell's columns are read live).
func (st *spatialState) dropOwn(cell int) {
	if st.ring != nil {
		slot := cell & st.ringMask
		if s := st.ring[slot]; s != nil && s.cell == cell {
			st.ring[slot] = nil
			st.pts -= int64(s.n)
			st.retire(s)
		}
		if st.pts > st.ptsCap {
			for i := range st.ring {
				st.ring[i] = nil
			}
			st.pts = 0
		}
		return
	}
	if s, ok := st.cache[cell]; ok {
		delete(st.cache, cell)
		st.pts -= int64(s.n)
		st.retire(s)
	}
	if st.pts > st.ptsCap {
		st.cache = map[int]*cellSample{}
		st.pts = 0
	}
}
