package model

import (
	"fmt"
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
