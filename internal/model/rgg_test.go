package model

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"kronvalid/internal/stream"
)

// samplePoints regenerates cell c's sample into a fresh cellSample —
// the Sample phase's pure function of (seed, cell) that the strip
// fills from.
func (g *RGG) samplePoints(cell int) *cellSample {
	cnt, start := g.tree.count(cell), g.tree.prefix(cell)
	s := newCellSample(start, int(cnt), g.dim)
	g.samplePointsInto(cell, g.cellCoords(cell), s.xs, s.ys, s.zs)
	return s
}

// within reports whether two AoS points lie at Euclidean distance <= r —
// the scalar reference predicate the SoA kernels mirror.
func (g *RGG) within(p, q []float64) bool {
	var d2 float64
	for d := 0; d < g.dim; d++ {
		diff := p[d] - q[d]
		d2 += diff * diff
	}
	return d2 <= g.r2
}

// bruteForceRGG regenerates every cell's points through the Sample
// phase and compares all pairs directly — the structure-oblivious
// oracle for the neighbor-cell enumeration.
func bruteForceRGG(g *RGG) []stream.Arc {
	var pts []float64
	for c := 0; c < g.CellCount(); c++ {
		s := g.samplePoints(c)
		for i := 0; i < s.n; i++ {
			pts = append(pts, s.xs[i], s.ys[i])
			if g.dim == 3 {
				pts = append(pts, s.zs[i])
			}
		}
	}
	dim := int64(g.dim)
	n := int64(len(pts)) / dim
	var out []stream.Arc
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.within(pts[u*dim:u*dim+dim], pts[v*dim:v*dim+dim]) {
				out = append(out, stream.Arc{U: u, V: v})
			}
		}
	}
	return out
}

// TestRGGMatchesBruteForce is the enumeration oracle: the streamed
// cell-grid output (own cell + regenerated forward neighbors, each
// undirected pair emitted once by the smaller endpoint's cell) must
// equal the all-pairs sweep over the regenerated point set exactly —
// any missed cross-cell pair, duplicate emission, or id misalignment
// shows up here. Grids of one to three cells per axis put every cell on
// a face, so each forward range is clipped at x = 0 or x = G−1, at the
// last row or at the last plane; for every grid, forwardNeighbors must
// also list exactly the in-bounds cells of the 3^dim block with a
// larger index.
func TestRGGMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		dim    int
		n      int64
		r      float64
		chunks int
	}{
		{2, 600, 0.07, 0},
		{2, 400, 0.25, 5}, // coarse grid, heavy cross-cell traffic
		{3, 400, 0.15, 7},
		{3, 250, 0.6, 3},  // near-complete, grid collapses to few cells
		{2, 200, 0.6, 1},  // G = 1
		{2, 300, 0.45, 3}, // G = 2
		{2, 300, 0.3, 4},  // G = 3
		{3, 200, 0.45, 2}, // G = 2
		{3, 300, 0.3, 5},  // G = 3
		{3, 500, 0.3, 27}, // G = 3, one cell per chunk
	} {
		g, err := NewRGG(tc.n, tc.r, tc.dim, 77, tc.chunks)
		if err != nil {
			t.Fatalf("NewRGG(%v): %v", tc, err)
		}
		if want := int(1 / tc.r); want <= 3 && g.grid != want {
			t.Fatalf("%s: grid %d, want %d", g.Name(), g.grid, want)
		}
		checkForwardNeighbors(t, g)
		want := bruteForceRGG(g)
		got := Collect(g)
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no edges, test is vacuous", g.Name())
		}
		if !sameArcs(want, got) {
			t.Errorf("%s: streamed %d arcs != brute force %d arcs", g.Name(), len(got), len(want))
		}
	}
}

// checkForwardNeighbors compares g.forwardNeighbors, cell by cell, with
// the in-bounds cells of the 3^dim block around it that have a larger
// index, ascending.
func checkForwardNeighbors(t *testing.T, g *RGG) {
	t.Helper()
	G := g.grid
	dz := []int{0}
	if g.dim == 3 {
		dz = []int{-1, 0, 1}
	}
	for cell := 0; cell < g.cells; cell++ {
		xyz := g.cellCoords(cell)
		var want []int
		for _, z := range dz {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					x, y, z := xyz[0]+dx, xyz[1]+dy, xyz[2]+z
					if x < 0 || x >= G || y < 0 || y >= G || z < 0 || z >= G {
						continue
					}
					if nb := (z*G+y)*G + x; nb > cell {
						want = append(want, nb)
					}
				}
			}
		}
		sort.Ints(want)
		if got := g.forwardNeighbors(cell); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: forward neighbours of cell %d %v are %v, want %v", g.Name(), cell, xyz, got, want)
		}
	}
}

// TestRGGCellCountsUniform is the chi-square satellite: the splitting
// tree must place points uniformly across the equal-volume cells — the
// exact multinomial(n, 1/cells) law — and the counts must sum to n
// exactly.
func TestRGGCellCountsUniform(t *testing.T) {
	g, err := NewRGG(20000, 0.1, 2, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := g.CellCount()
	if cells != 100 {
		t.Fatalf("grid collapsed: %d cells, want 100 (grid 10)", cells)
	}
	exp := float64(g.n) / float64(cells)
	var total int64
	var chi2 float64
	for c := 0; c < cells; c++ {
		cnt := g.CellVertices(c)
		total += cnt
		d := float64(cnt) - exp
		chi2 += d * d / exp
	}
	if total != g.n {
		t.Fatalf("cell occupancies sum to %d, want exactly %d", total, g.n)
	}
	// df = cells-1; mean df, sd sqrt(2 df). 6 sigma keeps the fixed-seed
	// test deterministic while catching any systematic skew.
	df := float64(cells - 1)
	if limit := df + 6*math.Sqrt(2*df); chi2 > limit {
		t.Errorf("per-cell count chi-square %.1f exceeds %.1f (df %.0f): placement not uniform", chi2, limit, df)
	}
	// And the ids must be cell-major: prefix(c) must match the running sum.
	var run int64
	for c := 0; c < cells; c++ {
		if got := g.tree.prefix(c); got != run {
			t.Fatalf("prefix(%d) = %d, running sum %d", c, got, run)
		}
		run += g.CellVertices(c)
	}
}

// TestRGG2DExpectedDegree is the mean-degree satellite: in the bulk the
// mean degree of RGG2D is (n-1)·πr²; boundary truncation only shaves a
// few percent at this radius, so a 10% band is a sharp check that the
// geometry (radius comparison, cell scaling) is right.
func TestRGG2DExpectedDegree(t *testing.T) {
	g, err := NewRGG(5000, 0.02, 2, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	arcs := Collect(g)
	mean := 2 * float64(len(arcs)) / float64(g.n)
	want := g.ExpectedDegree() // (n-1)·πr² ≈ 6.28
	if math.Abs(mean-want) > 0.10*want {
		t.Errorf("mean degree %.3f deviates more than 10%% from (n-1)πr² = %.3f", mean, want)
	}
}

// TestRGGDependenciesDeclared checks the Enumerate phase's declaration:
// every foreign cell a chunk regenerates is a forward neighbor of an
// owned cell, lies outside the chunk's own cell run, and the list is
// sorted and duplicate-free; interior chunks of a multi-chunk grid must
// actually declare some.
func TestRGGDependenciesDeclared(t *testing.T) {
	g, err := NewRGG(3000, 0.04, 2, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	declaredAny := false
	for c := 0; c < g.Chunks(); c++ {
		lo, hi := g.runs[c][0], g.runs[c][1]
		deps := g.Dependencies(c)
		if len(deps) > 0 {
			declaredAny = true
		}
		forward := map[int64]bool{}
		for cell := lo; cell < hi; cell++ {
			for _, nb := range g.forwardNeighbors(cell) {
				forward[int64(nb)] = true
			}
		}
		for i, dep := range deps {
			if dep < int64(hi) || dep >= int64(g.CellCount()) {
				t.Fatalf("chunk %d declares dependency %d outside the foreign range [%d,%d)", c, dep, hi, g.CellCount())
			}
			if i > 0 && deps[i-1] >= dep {
				t.Fatalf("chunk %d dependencies not strictly ascending: %v", c, deps)
			}
			if !forward[dep] {
				t.Fatalf("chunk %d declares %d, which no owned cell reads", c, dep)
			}
		}
		// Completeness: every foreign forward neighbor must be declared.
		declared := map[int64]bool{}
		for _, dep := range deps {
			declared[dep] = true
		}
		for nb := range forward {
			if nb >= int64(hi) && !declared[nb] {
				t.Fatalf("chunk %d reads foreign cell %d but does not declare it", c, nb)
			}
		}
	}
	if !declaredAny {
		t.Fatal("no chunk declared any dependency — test is vacuous")
	}
}

// TestRGGChunkCountDoesNotChangeStream pins the Sample/Enumerate
// separation for the spatial models: cells, occupancies and coordinates
// are fixed by (n, r, dim, seed), so unlike the pair-backed models the
// chunk count only groups cells and must NOT change a single byte.
func TestRGGChunkCountDoesNotChangeStream(t *testing.T) {
	base, err := NewRGG(2000, 0.05, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(base)
	for _, chunks := range []int{1, 7, 64, 500} {
		g, err := NewRGG(2000, 0.05, 2, 3, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if !sameArcs(want, Collect(g)) {
			t.Errorf("chunks=%d changed the rgg2d stream", chunks)
		}
	}
}

// TestRGGRejectsOutOfRange pins the spec-boundary validation.
func TestRGGRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		n   int64
		r   float64
		dim int
	}{
		{-1, 0.1, 2},
		{100, 0, 2},
		{100, -0.5, 2},
		{100, 1.5, 2},
		{100, math.NaN(), 2},
		{100, 0.1, 4},
		{maxRGGVertices + 1, 0.1, 3},
	} {
		if _, err := NewRGG(tc.n, tc.r, tc.dim, 1, 0); err == nil {
			t.Errorf("NewRGG(%d, %v, dim=%d) accepted", tc.n, tc.r, tc.dim)
		}
	}
	if _, err := New("rgg2d:n=100"); err == nil {
		t.Error("rgg2d without r accepted")
	}
	if _, err := New("rgg2d:n=100,r=0.1,radius=0.2"); err == nil {
		t.Error("unknown rgg2d parameter accepted")
	}
}
