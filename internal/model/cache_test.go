package model

import (
	"fmt"
	"sync"
	"testing"

	"kronvalid/internal/stream"
)

// collectFresh concatenates every chunk generated by a fresh worker —
// the cache-off reference: each chunk builds and discards its own
// worker state.
func collectFresh(g Generator) []stream.Arc {
	var out []stream.Arc
	emit := func(b []stream.Arc) []stream.Arc {
		out = append(out, b...)
		return b[:0]
	}
	for c := 0; c < g.Chunks(); c++ {
		g.NewWorker()(c, nil, emit)
	}
	return out
}

// collectCached runs the chunks the way the ordered driver does with
// `workers` goroutines: worker w executes chunks w, w+workers, … each
// through ONE NewWorker function, and the per-chunk outputs are
// concatenated in global chunk order. (Sequential execution here —
// interleaving never matters, states are per worker by contract.)
func collectCached(g Generator, workers int) []stream.Arc {
	chunks := make([][]stream.Arc, g.Chunks())
	for w := 0; w < workers; w++ {
		gen := g.NewWorker()
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

// TestWorkerCacheEvictionBound proves the resident-point cap: driving
// every chunk through one worker state whose cap is far below the total
// point count, the cache never ends a chunk holding more than the cap,
// and the emitted stream still matches the reference — eviction is a
// cost, not a value.
func TestWorkerCacheEvictionBound(t *testing.T) {
	const ptsCap = 128
	rgg3, err := NewRGG(1200, 0.09, 3, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
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
		{"rgg3d", rgg3, rgg3.generateChunk, newSpatialState(&rgg3.tree, &rgg3.ctab, ptsCap, rgg3.span()+1)},
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

// TestRHGForwardRunsMatchPartners pins that the range form of the
// forward-partner enumeration flattens to exactly the per-cell list —
// the strip path's window order equals the staged path's.
func TestRHGForwardRunsMatchPartners(t *testing.T) {
	g, err := NewRHG(5000, 12, 2.4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 1, g.cells / 3, g.cells / 2, g.cells - 2, g.cells - 1} {
		want := g.forwardPartners(c)
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
// states answer count/prefix from the capped descent memo, rgg loses
// its occupancy bitmap and rhg its sample strip, and the stream must
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
		if _, ctab := spatialTable(g); ctab.tab != nil || ctab.occ != nil {
			t.Fatalf("%s: a zero table gate still tabulated", spec)
		}
		if !sameArcs(tabled[spec], got) {
			t.Errorf("%s: memo-fallback stream (%d arcs) differs from the tabulated stream (%d arcs)",
				spec, len(got), len(tabled[spec]))
		}
	}
}

// TestCellTableConcurrentWorkers drives the cellTable's sync.Once the
// way the drivers do: W goroutines call NewWorker on one fresh
// generator at the same moment — one builds the table (itself on
// several goroutines), the rest wait — and then generate disjoint
// chunks. Run under -race, it is the check that late arrivals see a
// finished table and bitmap.
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
					gen := g.NewWorker()
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
