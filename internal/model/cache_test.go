package model

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kronvalid/internal/stream"
)

// collectFresh concatenates every chunk generated by a fresh run's
// worker — the cache-off reference: each chunk builds and discards its
// own run and worker state.
func collectFresh(g Generator) []stream.Arc {
	var out []stream.Arc
	emit := func(b []stream.Arc) []stream.Arc {
		out = append(out, b...)
		return b[:0]
	}
	for c := 0; c < g.Chunks(); c++ {
		g.NewRun()()(c, nil, emit)
	}
	return out
}

// collectCached runs the chunks the way the ordered driver does with
// `workers` goroutines of one run: worker w executes chunks w,
// w+workers, … each through ONE worker of the run, and the per-chunk
// outputs are concatenated in global chunk order. (Sequential execution
// here — interleaving never changes a value; TestRHGSharedStripWorkers
// runs the workers concurrently.)
func collectCached(g Generator, workers int) []stream.Arc {
	chunks := make([][]stream.Arc, g.Chunks())
	newWorker := g.NewRun()
	for w := 0; w < workers; w++ {
		gen := newWorker()
		for c := w; c < g.Chunks(); c += workers {
			cur := c
			gen(cur, nil, func(b []stream.Arc) []stream.Arc {
				chunks[cur] = append(chunks[cur], b...)
				return b[:0]
			})
		}
	}
	var out []stream.Arc
	for _, cs := range chunks {
		out = append(out, cs...)
	}
	return out
}

// cacheTestGens builds the three spatial generators at a given chunk
// count: small enough to brute-check, large enough that halos cross
// chunk boundaries everywhere.
func cacheTestGens(t *testing.T, chunks int) map[string]Generator {
	t.Helper()
	rgg2, err := NewRGG(2500, 0.03, 2, 9, chunks)
	if err != nil {
		t.Fatal(err)
	}
	rgg3, err := NewRGG(1200, 0.09, 3, 4, chunks)
	if err != nil {
		t.Fatal(err)
	}
	rhg, err := NewRHG(1800, 8, 2.6, 21, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Generator{"rgg2d": rgg2, "rgg3d": rgg3, "rhg": rhg}
}

// TestWorkerCacheDigestEquality pins the worker-lifetime cache's core
// contract: for rgg2d/rgg3d/rhg, the stream produced with one shared
// worker state per worker at 1, 4 and 8 workers is byte-identical to the
// cache-off per-chunk reference, across pathological chunk groupings
// (one chunk, a prime count, and one cell per chunk — the worst case
// for cross-chunk halo reuse).
func TestWorkerCacheDigestEquality(t *testing.T) {
	for _, chunks := range []int{1, 7, 1 << 20} {
		gens := cacheTestGens(t, chunks)
		for name, g := range gens {
			want := collectFresh(g)
			for _, workers := range []int{1, 4, 8} {
				got := collectCached(g, workers)
				if !sameArcs(want, got) {
					t.Errorf("%s chunks=%d: cached stream at %d workers differs from fresh-state reference (%d vs %d arcs)",
						name, chunks, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestWorkerCacheEvictionBound proves the resident-point cap of rhg's
// cell cache: driving every chunk through one worker state whose cap is
// far below the total point count, the cache never ends a chunk holding
// more than the cap, and the emitted stream still matches the reference
// — eviction is a cost, not a value. (rgg keeps no evicting cache; its
// strip's bound is TestRGGStripResidencyBound's.)
func TestWorkerCacheEvictionBound(t *testing.T) {
	const ptsCap = 128
	rhg, err := NewRHG(1800, 8, 2.6, 21, 64)
	if err != nil {
		t.Fatal(err)
	}
	type chunkFn func(st *spatialState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc)
	cases := []struct {
		name string
		g    Generator
		gen  chunkFn
		st   *spatialState
	}{
		{"rhg-ring", rhg, rhg.generateCells, newSpatialState(&rhg.tree, &rhg.ctab, ptsCap, rhg.cells)},
		{"rhg-map", rhg, rhg.generateCells, newSpatialState(&rhg.tree, &rhg.ctab, ptsCap, 0)},
	}
	for _, tc := range cases {
		want := collectFresh(tc.g)
		var got []stream.Arc
		emit := func(b []stream.Arc) []stream.Arc {
			got = append(got, b...)
			return b[:0]
		}
		for c := 0; c < tc.g.Chunks(); c++ {
			tc.gen(tc.st, c, nil, emit)
			if tc.st.pts > ptsCap {
				t.Fatalf("%s: %d resident points after chunk %d, cap %d", tc.name, tc.st.pts, c, ptsCap)
			}
		}
		if !sameArcs(want, got) {
			t.Errorf("%s: capped-cache stream differs from reference", tc.name)
		}
		if n := tc.g.NumVertices(); n <= ptsCap {
			t.Fatalf("%s: cap %d does not force eviction for n=%d", tc.name, ptsCap, n)
		}
	}
}

// chunkArcs runs one chunk through gen and returns its arcs.
func chunkArcs(gen stream.ShardGen, c int) []stream.Arc {
	var out []stream.Arc
	gen(c, nil, func(b []stream.Arc) []stream.Arc {
		out = append(out, b...)
		return b[:0]
	})
	return out
}

// rggStripOrders returns two chunk orders for n chunks: ascending, and
// runs of three consecutive chunks in scrambled run order — so one
// strip both carries its halo over (inside a run) and restarts (between
// runs, including backwards).
func rggStripOrders(n int) [][]int {
	asc := make([]int, n)
	for c := range asc {
		asc[c] = c
	}
	var runs [][]int
	for c := 0; c < n; c += 3 {
		runs = append(runs, asc[c:min(c+3, n)])
	}
	rand.New(rand.NewPCG(uint64(n), 7)).Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	var scr []int
	for _, r := range runs {
		scr = append(scr, r...)
	}
	return [][]int{asc, scr}
}

// rggStripGens builds fresh rgg2d/rgg3d generators (a generator
// tabulates at most once, so a lowered table gate needs fresh ones).
func rggStripGens(t *testing.T, chunks int) []*RGG {
	gens := cacheTestGens(t, chunks)
	return []*RGG{gens["rgg2d"].(*RGG), gens["rgg3d"].(*RGG)}
}

// TestRGGStripCarryOver guards the strip's carry-over: one worker state
// driven over every chunk of rgg2d/rgg3d, ascending and scrambled, at
// chunks ∈ {1, 7, cells}, with the prefix table and with the memo
// window (table gate lowered to 0), must give each chunk exactly the
// arcs a fresh worker gives it — concatenated in chunk order, the
// collectFresh stream.
func TestRGGStripCarryOver(t *testing.T) {
	for _, slots := range []int{maxCellTableSlots, 0} {
		func() {
			defer func(old int) { maxCellTableSlots = old }(maxCellTableSlots)
			maxCellTableSlots = slots
			for _, chunks := range []int{1, 7, 1 << 20} {
				for _, g := range rggStripGens(t, chunks) {
					want := collectFresh(g)
					for _, order := range rggStripOrders(g.Chunks()) {
						gen := g.NewRun()()
						got := make([][]stream.Arc, g.Chunks())
						for _, c := range order {
							got[c] = chunkArcs(gen, c)
						}
						if flat := slices.Concat(got...); !sameArcs(want, flat) {
							t.Fatalf("%s table=%v: one strip over chunks %v gave %d arcs, fresh workers %d",
								g.Name(), g.ctab.tab != nil, order, len(flat), len(want))
						}
					}
				}
			}
		}()
	}
}

// TestRGGStripResidencyBound bounds the strip by the halo span, not by
// the chunk's width: driven over every chunk in ascending and scrambled
// order, at chunk widths from the whole grid down to one cell, one
// worker's strip never holds more than twice the points of any 2·span()
// consecutive cells, and its capacity never more than four times, with
// the table and with the memo window.
func TestRGGStripResidencyBound(t *testing.T) {
	for _, slots := range []int{maxCellTableSlots, 0} {
		func() {
			defer func(old int) { maxCellTableSlots = old }(maxCellTableSlots)
			maxCellTableSlots = slots
			for _, chunks := range []int{1, 7, 64, 1 << 20} {
				for _, g := range rggStripGens(t, chunks) {
					if chunks == 1 && g.cells < 4*g.span() {
						t.Fatalf("%s: one chunk of %d cells is not wider than 4·span() = %d", g.Name(), g.cells, 4*g.span())
					}
					var most int64
					for a := 0; a < g.cells; a++ {
						most = max(most, g.tree.prefix(min(a+2*g.span(), g.cells))-g.tree.prefix(a))
					}
					for _, order := range rggStripOrders(g.Chunks()) {
						s := &rggState{lk: newTreeLookup(&g.tree, &g.ctab)}
						for _, c := range order {
							g.generateChunk(s, c, nil, func(b []stream.Arc) []stream.Arc { return b[:0] })
							if held := int64(len(s.xs)); held > 2*most {
								t.Fatalf("%s: strip holds %d points after chunk %d, 2·span() cells hold at most %d", g.Name(), held, c, most)
							}
							if held := int64(cap(s.xs)); held > 4*most {
								t.Fatalf("%s: strip capacity %d points after chunk %d, 2·span() cells hold at most %d", g.Name(), held, c, most)
							}
							if held := s.at(s.end) - s.base; held != int64(len(s.xs)) {
								t.Fatalf("%s: strip length %d, resident cells hold %d points", g.Name(), len(s.xs), held)
							}
						}
					}
				}
			}
		}()
	}
}

// TestRHGStripMatchesFallback pins that the strip fast path and the
// generic bounded cell cache produce the same bytes, and that the gate
// actually selects between them.
func TestRHGStripMatchesFallback(t *testing.T) {
	g, err := NewRHG(1800, 8, 2.6, 21, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !g.stripMode() {
		t.Fatalf("n=1800 under the %d-point gate should select the strip state", rhgPanelMaxPoints)
	}
	strip := collectCached(g, 3)

	defer func(old int64) { rhgPanelMaxPoints = old }(rhgPanelMaxPoints)
	rhgPanelMaxPoints = 0
	if g.stripMode() {
		t.Fatal("a zero panel gate should select the fallback cell cache")
	}
	fallback := collectCached(g, 3)
	if !sameArcs(strip, fallback) {
		t.Errorf("strip stream (%d arcs) differs from fallback cell-cache stream (%d arcs)", len(strip), len(fallback))
	}
}

// TestRHGSharedStripWorkers pins that one run holds one sample strip
// whatever its worker count. An rhg spec in strip mode is streamed
// through NewPlan at W ∈ {1, 2, 4} with as many chunks as the widest
// run has workers, so every worker's forward windows reach into the same
// inner-band cells at once and the workers race to fill them. The
// stream must be the same at every W, the bytes one run allocates at
// W = 4 must stay within 1.25× of W = 1 (one strip, not four), and once
// the run returns, the heap must not keep the strip: the generator
// holds none.
func TestRHGSharedStripWorkers(t *testing.T) {
	const chunks = 4
	g, err := NewRHG(1<<18, 2, 2.6, 31, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !g.stripMode() { // also builds the cell table outside the counts
		t.Fatalf("n=%d should select the strip state", g.n)
	}
	stripBytes := uint64(g.n) * 4 * 8
	run := func(workers int) (digest uint64, arcs int64, alloc, kept uint64) {
		var before, after, settled runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		digest = 14695981039346656037
		sink := stream.FuncSink(func(batch []stream.Arc) error {
			for _, a := range batch {
				digest = (digest ^ uint64(a.U)) * 1099511628211
				digest = (digest ^ uint64(a.V)) * 1099511628211
			}
			return nil
		})
		arcs, err := stream.RunSource(context.Background(), NewPlan(g, workers), sink, stream.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&settled)
		return digest, arcs, after.TotalAlloc - before.TotalAlloc, max(settled.HeapAlloc, before.HeapAlloc) - before.HeapAlloc
	}
	var want, alloc1 uint64
	var wantArcs int64
	for _, workers := range []int{1, 2, 4} {
		got, arcs, alloc, kept := run(workers)
		t.Logf("W=%d: %d arcs, %d bytes allocated, %d bytes kept after the run", workers, arcs, alloc, kept)
		if kept > stripBytes/2 {
			t.Errorf("W=%d: heap grew by %d bytes over the run and stayed; the strip is %d bytes", workers, kept, stripBytes)
		}
		if workers == 1 {
			want, wantArcs, alloc1 = got, arcs, alloc
			if arcs == 0 || alloc < stripBytes {
				t.Fatalf("W=1: %d arcs, %d bytes allocated for a %d-byte strip", arcs, alloc, stripBytes)
			}
			continue
		}
		if got != want || arcs != wantArcs {
			t.Errorf("W=%d: digest %x over %d arcs, W=1 gave %x over %d", workers, got, arcs, want, wantArcs)
		}
		if limit := alloc1 + alloc1/4; alloc > limit {
			t.Errorf("W=%d: one run allocated %d bytes, more than 1.25× W=1's %d: a strip per worker?", workers, alloc, alloc1)
		}
	}
}

// forwardPartnersOracle is the former per-index forward-partner
// enumeration, retained as the oracle of appendForwardRuns: cell by
// cell, each band's wrapped window {j mod cells : jLo <= j <= jHi}
// (all of the band when it covers every cell) with the indices > c,
// ascending.
func forwardPartnersOracle(g *RHG, c int) []int {
	var out []int
	b1 := g.cellBand(c)
	own := &g.bands[b1]
	j1 := c - own.cellStart
	th0 := float64(j1) * own.width
	th1 := th0 + own.width
	nb := len(g.bands)
	for b2 := b1; b2 < nb; b2++ {
		bd := &g.bands[b2]
		reach := g.maxAng[b1*nb+b2] + rhgWindowMargin*bd.width
		jLo := int(math.Floor((th0 - reach) / bd.width))
		jHi := int(math.Floor((th1 + reach) / bd.width))
		if jHi-jLo+1 >= bd.cells {
			start := bd.cellStart
			if b2 == b1 {
				start = c + 1
			}
			for idx := start; idx < bd.cellStart+bd.cells; idx++ {
				out = append(out, idx)
			}
			continue
		}
		a := ((jLo % bd.cells) + bd.cells) % bd.cells
		z := ((jHi % bd.cells) + bd.cells) % bd.cells
		if a <= z {
			for j := a; j <= z; j++ {
				if idx := bd.cellStart + j; idx > c {
					out = append(out, idx)
				}
			}
			continue
		}
		for j := 0; j <= z; j++ {
			if idx := bd.cellStart + j; idx > c {
				out = append(out, idx)
			}
		}
		for j := a; j < bd.cells; j++ {
			if idx := bd.cellStart + j; idx > c {
				out = append(out, idx)
			}
		}
	}
	return out
}

// TestRHGForwardRunsMatchPartners pins that the range form of the
// forward-partner enumeration flattens, for every cell, to exactly the
// per-index list of the oracle — the windows both rhg paths scan.
func TestRHGForwardRunsMatchPartners(t *testing.T) {
	g, err := NewRHG(5000, 12, 2.4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g.cells; c++ {
		want := forwardPartnersOracle(g, c)
		var got []int
		for _, r := range g.appendForwardRuns(c, nil) {
			for cc := r.lo; cc < r.hi; cc++ {
				got = append(got, cc)
			}
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("cell %d: runs flatten to %v, partners are %v", c, got, want)
		}
	}
}

// tableTestGens builds fresh spatial generators whose cell counts
// (10000, 8000, 4999) are past expandMinGrain, so with more than one
// processor their tables are expanded in parallel; a fresh set per call
// because a generator tabulates at most once.
func tableTestGens(t *testing.T) map[string]Generator {
	t.Helper()
	gens := map[string]Generator{}
	for _, spec := range []string{
		"rgg2d:n=20000,r=0.01,seed=42",
		"rgg3d:n=20000,r=0.05,seed=42",
		"rhg:n=20000,d=8,gamma=2.9,seed=42",
	} {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if tree, _ := spatialTable(g); tree.slots <= expandMinGrain {
			t.Fatalf("%s: %d cells expand serially", spec, tree.slots)
		}
		gens[spec] = g
	}
	return gens
}

// spatialTable returns a spatial generator's splitting tree and the
// cell table built from it.
func spatialTable(g Generator) (*splitTree, *cellTable) {
	switch g := g.(type) {
	case *RGG:
		return &g.tree, &g.ctab
	case *RHG:
		return &g.tree, &g.ctab
	}
	panic("model: " + g.Name() + " has no cell table")
}

// TestSpatialMemoFallbackMatchesTable covers the path every spatial
// spec above maxCellTableSlots takes in production (e.g.
// rgg2d:n=3000000,r=0.0005): with the table gate forced to 0 the worker
// states answer count/prefix from the capped descent memo, rgg takes
// its strip's prefix window from that memo and rhg loses its sample
// strip, and the stream must
// still be arc for arc the tabulated one.
func TestSpatialMemoFallbackMatchesTable(t *testing.T) {
	tabled := map[string][]stream.Arc{}
	for spec, g := range tableTestGens(t) {
		tabled[spec] = collectCached(g, 3)
	}

	defer func(old int) { maxCellTableSlots = old }(maxCellTableSlots)
	maxCellTableSlots = 0
	for spec, g := range tableTestGens(t) {
		got := collectCached(g, 3)
		if _, ctab := spatialTable(g); ctab.tab != nil {
			t.Fatalf("%s: a zero table gate still tabulated", spec)
		}
		if !sameArcs(tabled[spec], got) {
			t.Errorf("%s: memo-fallback stream (%d arcs) differs from the tabulated stream (%d arcs)",
				spec, len(got), len(tabled[spec]))
		}
	}
}

// TestCellTableConcurrentWorkers drives the cellTable's sync.Once the
// way concurrent runs over one generator do: W goroutines each start a
// run on one fresh generator at the same moment — one builds the table
// (itself on several goroutines), the rest wait — and then generate
// disjoint chunks. (rgg takes the table when a worker starts, rhg when
// its run starts.) Run under -race, it is the check that late arrivals
// see a finished table.
func TestCellTableConcurrentWorkers(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for spec, g := range tableTestGens(t) {
			chunks := make([][]stream.Arc, g.Chunks())
			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					<-start
					gen := g.NewRun()()
					for c := w; c < len(chunks); c += workers {
						cur := c
						gen(cur, nil, func(b []stream.Arc) []stream.Arc {
							chunks[cur] = append(chunks[cur], b...)
							return b[:0]
						})
					}
				}(w)
			}
			close(start)
			wg.Wait()
			var got []stream.Arc
			for _, cs := range chunks {
				got = append(got, cs...)
			}
			if want := collectFresh(g); !sameArcs(want, got) {
				t.Errorf("%s: %d concurrent workers produced %d arcs, fresh-state reference has %d",
					spec, workers, len(got), len(want))
			}
		}
	}
}
