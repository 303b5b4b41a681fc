package model

import (
	"fmt"
	"math"
	"math/bits"

	"kronvalid/internal/par"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// RGG is the sharded random geometric graph on the unit square (dim 2)
// or unit cube (dim 3): n vertices placed uniformly at random, an
// undirected edge between every pair at Euclidean distance <= r,
// emitted once as the upper-triangle arc (u, v), u < v, in canonical
// order.
//
// This is the paper's centerpiece construction, in the two-phase shape:
//
// Sample — the unit box is cut into a grid of cells with side >= r.
// Cell occupancies realize an exact-n multinomial via the shared
// recursive binomial splitting tree (splitTree, uncapacitated, weights
// proportional to cell volume), and cell c's coordinates come from the
// pure stream (seed, nsRGGCell, c): any worker recomputes any cell's
// vertex sample on demand. Vertex ids are assigned cell-major (cell
// index order, then placement order), so id order agrees with cell
// order.
//
// Enumerate — because the cell side is >= r, every edge is confined to
// one cell or two neighboring cells. Each chunk owns a contiguous run
// of cells and, for each owned cell, compares its points against the
// cell itself and its *forward* neighbors (grid neighbors with larger
// cell index), regenerating foreign cells' samples instead of
// receiving them — the declared Dependencies. Each undirected pair is
// therefore emitted exactly once, by the lexicographically smaller
// endpoint's cell, and the per-u segments arrive in ascending order,
// so the chunk stream is canonical without sorting.
//
// The chunk grouping touches no random draw — cells, occupancies and
// coordinates are fixed by (n, r, dim, seed) alone — so the stream is
// byte-identical for every chunk AND worker count.
//
// Hot-path layout: each worker regenerates points into one SoA strip
// indexed by global id (rggState), occupancies and prefixes come from
// a lazily tabulated splitting tree (cellTable), and a cell's forward
// neighbours are a few contiguous id ranges (forwardRanges) that
// dim-specialized kernels (within2/within3) scan in place, emitting
// hit indices as runs. All of it is value-identical to the scalar AoS
// path — identical draws, identical float expressions, identical
// emission order — so the canonical stream cannot move.
type RGG struct {
	n      int64
	r      float64
	dim    int
	seed   uint64
	grid   int // cells per axis
	cells  int // grid^dim
	r2     float64
	inv    float64 // 1/grid, the cell side
	tree   splitTree
	ctab   cellTable // lazy full prefix table of tree
	runs   [][2]int  // cell range per chunk
	starts []int64   // vertex-id offset at each chunk boundary (len runs+1)
}

// maxRGGVertices bounds n so id and occupancy arithmetic stays well
// inside int64.
const maxRGGVertices = int64(1) << 40

// maxRGGCells bounds the cell count: splitting-tree node ids pack two
// cell indices into one uint64, and descents are O(log cells) per cell
// query.
const maxRGGCells = 1 << 24

// maxRGGChunkPoints bounds the *expected* number of points a chunk
// covers (its own cells plus the regenerated neighbor halo); denser
// placements are construction errors ("raise chunks"). The worker's
// strip holds at most about 2·span() cells of them at a time
// (generateChunk).
const maxRGGChunkPoints = int64(1) << 25

// NewRGG returns the sharded random geometric graph generator for
// dim ∈ {2, 3}. chunks = 0 means DefaultChunks; unlike the pair-backed
// models, the chunk count only groups cells for enumeration and is NOT
// part of the stream identity.
func NewRGG(n int64, r float64, dim int, seed uint64, chunks int) (*RGG, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("model: rgg dimension %d is not 2 or 3", dim)
	}
	if n < 0 || n > maxRGGVertices {
		return nil, fmt.Errorf("model: rgg vertex count %d out of [0, %d]", n, maxRGGVertices)
	}
	if math.IsNaN(r) || r <= 0 || r > 1 {
		return nil, fmt.Errorf("model: rgg radius %v out of (0, 1]", r)
	}
	g := &RGG{n: n, r: r, dim: dim, seed: seed, r2: r * r}
	// The neighbor-cell argument needs cell side 1/grid >= r, i.e.
	// grid <= 1/r; beyond that the grid only gets finer to keep expected
	// occupancy >= 1 (cells <= n) and the cell count bounded. Every
	// clamp shrinks grid, so the side only grows and correctness holds.
	g.grid = int(math.Floor(1 / r))
	if g.grid < 1 {
		g.grid = 1
	}
	if occ := int(math.Floor(math.Pow(float64(n), 1/float64(dim)))); g.grid > occ {
		g.grid = occ
	}
	maxGrid := int(math.Floor(math.Pow(maxRGGCells, 1/float64(dim))))
	if g.grid > maxGrid {
		g.grid = maxGrid
	}
	if g.grid < 1 {
		g.grid = 1
	}
	g.cells = g.grid
	for d := 1; d < dim; d++ {
		g.cells *= g.grid
	}
	g.inv = 1 / float64(g.grid)
	g.tree = splitTree{
		seed:  seed,
		ns:    nsRGGSplit,
		slots: g.cells,
		total: n,
		// Cells have equal volume, so occupancy weights are cell counts.
		weight: func(lo, hi int) int64 { return int64(hi - lo) },
	}
	k := normalizeChunks(chunks, int64(g.cells))
	for _, run := range par.Chunks(int64(g.cells), int64(k)) {
		g.runs = append(g.runs, [2]int{int(run[0]), int(run[1])})
	}
	if len(g.runs) == 0 {
		g.runs = [][2]int{{0, g.cells}}
	}
	// A chunk covers its own cells' points plus the foreign halo it
	// regenerates (at most span() cells), so the bound counts both.
	maxOwned := (g.cells + len(g.runs) - 1) / len(g.runs)
	if resident := int64(float64(n) * float64(maxOwned+g.span()) / float64(g.cells)); resident > maxRGGChunkPoints {
		return nil, fmt.Errorf("model: rgg holds ~%d of %d points resident per chunk (own cells + regenerated halo; cap %d); raise chunks",
			resident, n, maxRGGChunkPoints)
	}
	// One shared memo across the prefix descents: each tree node's split
	// is drawn once instead of once per run that passes it (the values
	// are unchanged — a memo never changes what a node draws).
	memo := make(splitMemo, 2*len(g.runs))
	g.starts = make([]int64, len(g.runs)+1)
	for i, run := range g.runs {
		g.starts[i] = g.tree.prefixMemo(run[0], memo)
	}
	g.starts[len(g.runs)] = n
	return g, nil
}

func buildRGG(p *Params, seed uint64, chunks int, dim int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	r, err := p.FloatReq("r")
	if err != nil {
		return nil, err
	}
	return NewRGG(n, r, dim, seed, chunks)
}

func init() {
	Register("rgg2d", func(p *Params, seed uint64, chunks int) (Generator, error) { return buildRGG(p, seed, chunks, 2) })
	Register("rgg3d", func(p *Params, seed uint64, chunks int) (Generator, error) { return buildRGG(p, seed, chunks, 3) })
}

// Name returns the canonical spec of this generator.
func (g *RGG) Name() string {
	return fmt.Sprintf("rgg%dd:n=%d,r=%s,seed=%d,chunks=%d", g.dim, g.n, formatFloat(g.r), g.seed, len(g.runs))
}

// NumVertices returns n.
func (g *RGG) NumVertices() int64 { return g.n }

// NumArcs returns -1: the edge count is random.
func (g *RGG) NumArcs() int64 { return -1 }

// ExpectedDegree returns the bulk mean degree (n-1)·V(r), where V is
// the volume of the r-ball (boundary effects excluded): π r² in 2D,
// (4/3) π r³ in 3D.
func (g *RGG) ExpectedDegree() float64 {
	v := math.Pi * g.r2
	if g.dim == 3 {
		v = 4.0 / 3.0 * math.Pi * g.r2 * g.r
	}
	return float64(g.n-1) * v
}

// Chunks returns the fixed chunk count.
func (g *RGG) Chunks() int { return len(g.runs) }

// CellCount returns the number of sample cells (grid^dim).
func (g *RGG) CellCount() int { return g.cells }

// CellVertices returns the exact occupancy of cell c — the Sample
// phase's splitting tree, recomputable by any worker.
func (g *RGG) CellVertices(c int) int64 { return g.tree.count(c) }

// ChunkRange returns chunk c's vertex-id range: ids are cell-major, so
// contiguous cell runs own contiguous id ranges.
func (g *RGG) ChunkRange(c int) (lo, hi int64) {
	return g.starts[c], g.starts[c+1]
}

// span returns the maximum forward cell-index offset a cell reads
// (grid-neighbor (+1, +1[, +1]) in row-major order): the halo depth of
// a chunk's foreign reads, in cells.
func (g *RGG) span() int {
	if g.dim == 2 {
		return g.grid + 1
	}
	return g.grid*g.grid + g.grid + 1
}

// ChunkWeight returns chunk c's expected work: its expected point count
// (cells are equal-volume, so proportional to owned cells) plus the
// expected points of the foreign halo it regenerates — bounded in
// closed form by span() cells clipped to the grid, so planning stays
// O(chunks) without enumerating Dependencies. Shard balancing therefore
// accounts for the recomputation halo, not just ownership.
func (g *RGG) ChunkWeight(c int) int64 {
	halo := g.span()
	if rest := g.cells - g.runs[c][1]; rest < halo {
		halo = rest
	}
	cells := g.runs[c][1] - g.runs[c][0] + halo
	return 1 + int64(float64(g.n)*float64(cells)/float64(g.cells))
}

// ChunkArcs returns -1: per-chunk counts are random.
func (g *RGG) ChunkArcs(c int) int64 { return -1 }

// cellCoords decomposes a row-major cell index into grid coordinates
// (x fastest).
func (g *RGG) cellCoords(cell int) [3]int {
	var xyz [3]int
	xyz[0] = cell % g.grid
	cell /= g.grid
	xyz[1] = cell % g.grid
	if g.dim == 3 {
		xyz[2] = cell / g.grid
	}
	return xyz
}

// forwardRanges writes to rs the grid neighbours of cell (at grid
// coordinates xyz) with a larger index, as ascending runs of
// consecutive cells [lo, hi), and returns the number of runs. Ids are
// cell-major with x fastest, so there are at most two runs in 2D and
// five in 3D: rs[0] is cell x+1 (empty at x = G−1); then row y+1 over
// cells x−1..x+1; and in 3D plane z+1, rows y−1..y+1, each over cells
// x−1..x+1 — every run clipped at the grid's faces.
func (g *RGG) forwardRanges(cell int, xyz [3]int, rs *[5][2]int) int {
	G := g.grid
	x, y, z := xyz[0], xyz[1], xyz[2]
	rs[0] = [2]int{cell + 1, cell + 1}
	if x+1 < G {
		rs[0][1]++
	}
	x0, x1 := max(x-1, 0)-x, min(x+1, G-1)+1-x
	nr := 1
	if y+1 < G {
		rs[nr] = [2]int{cell + G + x0, cell + G + x1}
		nr++
	}
	if g.dim == 3 && z+1 < G {
		for dy := max(-y, -1); dy <= min(1, G-1-y); dy++ {
			r := cell + G*G + dy*G
			rs[nr] = [2]int{r + x0, r + x1}
			nr++
		}
	}
	return nr
}

// forwardNeighbors returns the grid neighbors of cell with a larger
// row-major index, ascending — the cells whose points this cell is
// responsible for pairing with its own.
func (g *RGG) forwardNeighbors(cell int) []int {
	var rs [5][2]int
	var out []int
	for _, r := range rs[:g.forwardRanges(cell, g.cellCoords(cell), &rs)] {
		for c := r[0]; c < r[1]; c++ {
			out = append(out, c)
		}
	}
	return out
}

// Dependencies returns the foreign cells chunk c regenerates: forward
// neighbors of its owned cells that fall outside its own cell run. Only
// cells within span() of the run's end can reach past it.
func (g *RGG) Dependencies(c int) []int64 {
	lo, hi := g.runs[c][0], g.runs[c][1]
	read := make([]bool, g.span())
	for cell := max(lo, hi-g.span()); cell < hi; cell++ {
		for _, nb := range g.forwardNeighbors(cell) {
			if nb >= hi {
				read[nb-hi] = true
			}
		}
	}
	var out []int64
	for i, r := range read {
		if r {
			out = append(out, int64(hi+i))
		}
	}
	return out
}

// samplePointsInto writes cell's points, one SoA column per coordinate
// (zs is ignored in 2D; every column has the cell's occupancy as its
// length): coordinates from the cell's own stream, each scaled into
// the cell's box. xyz must equal cellCoords(cell). The destination
// never influences a value.
func (g *RGG) samplePointsInto(cell int, xyz [3]int, xs, ys, zs []float64) {
	if len(xs) == 0 {
		return
	}
	rs := rng.NewStream2(g.seed, nsRGGCell, uint64(cell))
	// SoA batched fill: per-point draw order x, y(, z) — draw-for-draw
	// identical to the per-point UnitUniform loop it replaced.
	if g.dim == 2 {
		rs.UnitUniform2(xs, ys)
	} else {
		rs.UnitUniform3(xs, ys, zs)
	}
	fx := float64(xyz[0])
	for i, u := range xs {
		xs[i] = (fx + u) * g.inv
	}
	fy := float64(xyz[1])
	for i, u := range ys {
		ys[i] = (fy + u) * g.inv
	}
	if g.dim == 3 {
		fz := float64(xyz[2])
		for i, u := range zs {
			zs[i] = (fz + u) * g.inv
		}
	}
}

// rggState is rgg's worker state: one SoA strip of regenerated points,
// the point with global id v at strip offset v − base, where base is
// the id of cell org's first point, and pfx[c−org] = prefix(c). It
// holds every cell of [org, end) — a window [lo, hi+span()) of at most
// span() own cells and the forward halo behind them — each filled once.
// Ids are cell-major, so any run of consecutive cells is one contiguous
// strip range, and the kernels scan strip slices with no staging copy
// and no id column.
//
// When a window starts where the last one's own cells ended, the
// resident halo is its first cells and is kept: only the cells past it
// are filled. The dead head [org, lo) is dropped (the live tail moved
// to the front) once it outweighs the live part in points or cells, so
// each point moves O(1) times amortized and the strip never holds more
// than twice the points of 2·span() consecutive cells. Any other window
// starts a fresh strip.
type rggState struct {
	lk         treeLookup
	org, end   int
	next       int // the last window's hi: where a carried-over window starts
	base       int64
	pfx        []int64
	xs, ys, zs []float64
	hits       []int32
}

// at returns prefix(c) for a resident c in [org, end].
func (s *rggState) at(c int) int64 { return s.pfx[c-s.org] }

// window makes cells [lo, hi) and their forward halo resident.
func (s *rggState) window(g *RGG, lo, hi int) {
	wHi := min(hi+g.span(), g.cells)
	if s.pfx == nil || lo != s.next {
		s.org, s.end = lo, lo
		s.base = s.lk.prefix(&g.tree, lo)
		s.pfx = append(s.pfx[:0], s.base)
	} else if dead, live := int(s.at(lo)-s.base), int(s.at(s.end)-s.at(lo)); dead >= live || lo-s.org >= s.end-lo {
		copy(s.xs, s.xs[dead:dead+live])
		copy(s.ys, s.ys[dead:dead+live])
		if g.dim == 3 {
			copy(s.zs, s.zs[dead:dead+live])
		}
		s.base += int64(dead)
		s.pfx = s.pfx[:copy(s.pfx, s.pfx[lo-s.org:])]
		s.org = lo
	}
	s.next = hi
	// The carried halo [lo, end) lies inside [lo, wHi), so only cells
	// [end, wHi) are new.
	for c := s.end; c < wHi; c++ {
		s.pfx = append(s.pfx, s.at(c)+s.lk.count(&g.tree, c))
	}
	from := int(s.at(s.end) - s.base)
	n := int(s.at(wHi) - s.base)
	s.xs, s.ys = growColumn(s.xs, n), growColumn(s.ys, n)
	if g.dim == 3 {
		s.zs = growColumn(s.zs, n)
	}
	xyz := g.cellCoords(s.end)
	for c := s.end; c < wHi; c++ {
		to := int(s.at(c+1) - s.base)
		if to > from {
			var zs []float64
			if g.dim == 3 {
				zs = s.zs[from:to]
			}
			g.samplePointsInto(c, xyz, s.xs[from:to], s.ys[from:to], zs)
		}
		from = to
		g.step(&xyz)
	}
	s.end = wHi
}

// growColumn returns col resized to length n, keeping its contents and
// doubling the capacity when it must grow.
func growColumn(col []float64, n int) []float64 {
	if n <= cap(col) {
		return col[:n]
	}
	out := make([]float64, n, 2*n)
	copy(out, col)
	return out
}

// step advances grid coordinates to the next cell in row-major order.
func (g *RGG) step(xyz *[3]int) {
	if xyz[0]++; xyz[0] == g.grid {
		xyz[0] = 0
		if xyz[1]++; xyz[1] == g.grid {
			xyz[1] = 0
			xyz[2]++
		}
	}
}

// NewRun returns the worker factory of one run: each worker gets its
// own strip, and the run shares nothing but the generator's cell table.
func (g *RGG) NewRun() stream.GenFactory { return g.newWorker }

// newWorker returns the chunk generator bound to one worker-lifetime
// strip.
func (g *RGG) newWorker() stream.ShardGen {
	s := &rggState{lk: newTreeLookup(&g.tree, &g.ctab)}
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateChunk(s, c, buf, emit)
	}
}

// generateChunk streams chunk c over the strip, windowing it in
// sub-runs of at most span() cells so the strip stays O(span()) however
// wide the chunk is; consecutive sub-runs carry over. For each owned
// cell in index order, its forward neighbours' runs (forwardRanges)
// become strip slices — the first joined to the cell's own later
// points — and each own point runs one kernel call per slice, emitting
// (u, v), u < v, through addRun. The slices visit the same cells in
// the same order as a per-neighbour walk, so the stream is canonical
// by construction and arc for arc the same.
func (g *RGG) generateChunk(s *rggState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	lo, hi := g.runs[c][0], g.runs[c][1]
	if lo >= hi || g.n == 0 {
		return
	}
	b := newBatcher(buf, emit)
	xyz := g.cellCoords(lo)
	var rs [5][2]int
	for cell, subHi := lo, lo; cell < hi; cell++ {
		if cell == subHi {
			subHi = min(cell+g.span(), hi)
			s.window(g, cell, subHi)
		}
		at := xyz
		g.step(&xyz)
		a, e := int(s.at(cell)-s.base), int(s.at(cell+1)-s.base)
		if a == e {
			continue
		}
		nr := g.forwardRanges(cell, at, &rs)
		tail := int(s.at(rs[0][1]) - s.base)
		for k := 1; k < nr; k++ {
			rs[k] = [2]int{int(s.at(rs[k][0]) - s.base), int(s.at(rs[k][1]) - s.base)}
		}
		for i := a; i < e; i++ {
			u := s.base + int64(i)
			if g.dim == 3 {
				x, y, z := s.xs[i], s.ys[i], s.zs[i]
				s.hits = within3(x, y, z, g.r2, s.xs[i+1:tail], s.ys[i+1:tail], s.zs[i+1:tail], s.hits[:0])
				if !b.addRun(u, u+1, s.hits) {
					return
				}
				for _, r := range rs[1:nr] {
					s.hits = within3(x, y, z, g.r2, s.xs[r[0]:r[1]], s.ys[r[0]:r[1]], s.zs[r[0]:r[1]], s.hits[:0])
					if !b.addRun(u, s.base+int64(r[0]), s.hits) {
						return
					}
				}
				continue
			}
			x, y := s.xs[i], s.ys[i]
			s.hits = within2(x, y, g.r2, s.xs[i+1:tail], s.ys[i+1:tail], s.hits[:0])
			if !b.addRun(u, u+1, s.hits) {
				return
			}
			for _, r := range rs[1:nr] {
				s.hits = within2(x, y, g.r2, s.xs[r[0]:r[1]], s.ys[r[0]:r[1]], s.hits[:0])
				if !b.addRun(u, s.base+int64(r[0]), s.hits) {
					return
				}
			}
		}
	}
	b.flush()
}

// kernelLanes is the fixed block width of the distance kernels: the
// body evaluates kernelLanes independent lanes per iteration with the
// hit bits OR-ed into a mask — no data-dependent branch in the compare
// loop — and drains the mask afterwards. Eight float64 lanes are two
// 256-bit vectors' worth of independent work, enough to hide the
// subtract/multiply latency chain even without auto-vectorization.
const kernelLanes = 8

// within2 appends to hits the ascending indices j of the SoA segment
// with (x−xs[j])² + (y−ys[j])² <= r2. Blocked kernelLanes at a time:
// each lane evaluates the same expression tree as the scalar tail
// (d2 = dx·dx, then d2 += dy·dy), so any platform's rounding/fusion
// decisions are identical lane by lane and the predicate cannot move a
// bit; only the branch structure changes. Hits drain from the mask in
// ascending bit order, preserving the emission order.
func within2(x, y, r2 float64, xs, ys []float64, hits []int32) []int32 {
	ys = ys[:len(xs)]
	j := 0
	for ; j+kernelLanes <= len(xs); j += kernelLanes {
		bx := xs[j : j+kernelLanes : j+kernelLanes]
		by := ys[j : j+kernelLanes : j+kernelLanes]
		var mask uint32
		for k := 0; k < kernelLanes; k++ {
			dx := x - bx[k]
			dy := y - by[k]
			d2 := dx * dx
			d2 += dy * dy
			var hit uint32
			if d2 <= r2 {
				hit = 1
			}
			mask |= hit << k
		}
		for mask != 0 {
			k := bits.TrailingZeros32(mask)
			mask &= mask - 1
			hits = append(hits, int32(j+k))
		}
	}
	for ; j < len(xs); j++ {
		dx := x - xs[j]
		dy := y - ys[j]
		d2 := dx * dx
		d2 += dy * dy
		if d2 <= r2 {
			hits = append(hits, int32(j))
		}
	}
	return hits
}

// within3 is within2 for three coordinates.
func within3(x, y, z, r2 float64, xs, ys, zs []float64, hits []int32) []int32 {
	ys = ys[:len(xs)]
	zs = zs[:len(xs)]
	j := 0
	for ; j+kernelLanes <= len(xs); j += kernelLanes {
		bx := xs[j : j+kernelLanes : j+kernelLanes]
		by := ys[j : j+kernelLanes : j+kernelLanes]
		bz := zs[j : j+kernelLanes : j+kernelLanes]
		var mask uint32
		for k := 0; k < kernelLanes; k++ {
			dx := x - bx[k]
			dy := y - by[k]
			dz := z - bz[k]
			d2 := dx * dx
			d2 += dy * dy
			d2 += dz * dz
			var hit uint32
			if d2 <= r2 {
				hit = 1
			}
			mask |= hit << k
		}
		for mask != 0 {
			k := bits.TrailingZeros32(mask)
			mask &= mask - 1
			hits = append(hits, int32(j+k))
		}
	}
	for ; j < len(xs); j++ {
		dx := x - xs[j]
		dy := y - ys[j]
		dz := z - zs[j]
		d2 := dx * dx
		d2 += dy * dy
		d2 += dz * dz
		if d2 <= r2 {
			hits = append(hits, int32(j))
		}
	}
	return hits
}
