package model

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

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
// Hot-path layout: cell samples are SoA (one array per coordinate),
// occupancies and prefixes come from a lazily tabulated splitting tree
// (cellTable), and pair enumeration runs dim-specialized kernels
// (within2/within3) that collect hit indices into a scratch buffer
// emitted as runs. All of it is value-identical to the scalar AoS
// path — identical draws, identical float expressions, identical
// emission order — so the canonical stream cannot move.
type RGG struct {
	n        int64
	r        float64
	dim      int
	seed     uint64
	grid     int // cells per axis
	cells    int // grid^dim
	r2       float64
	inv      float64 // 1/grid, the cell side
	tree     splitTree
	ctab     cellTable   // lazy full prefix table of tree
	nbDeltas []gridDelta // forward neighbor offsets, ascending
	runs     [][2]int    // cell range per chunk
	starts   []int64     // vertex-id offset at each chunk boundary (len runs+1)
}

// gridDelta is one candidate forward grid-neighbor: the coordinate
// deltas (for the bounds check) and the row-major index offset they
// induce. For in-bounds neighbors idx == cell + off exactly, and
// distinct in-bounds deltas always produce distinct offsets, so a
// delta table sorted by off enumerates neighbors in ascending index
// order with no per-cell sort.
type gridDelta struct {
	dx, dy, dz int
	off        int
}

// maxRGGVertices bounds n so id and occupancy arithmetic stays well
// inside int64.
const maxRGGVertices = int64(1) << 40

// maxRGGCells bounds the cell count: splitting-tree node ids pack two
// cell indices into one uint64, and descents are O(log cells) per cell
// query.
const maxRGGCells = 1 << 24

// maxRGGChunkPoints bounds the *expected* number of points a chunk owns
// (its own cells plus the regenerated neighbor halo are held in memory
// while the chunk generates); denser placements are construction errors
// ("raise chunks") rather than mid-stream memory exhaustion. It doubles
// as the worker-lifetime cache's resident-point cap.
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
	zs := []int{0}
	if dim == 3 {
		zs = []int{-1, 0, 1}
	}
	for _, dz := range zs {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				// Forward neighbors only: off > 0 ⟺ idx > cell for every
				// in-bounds candidate (idx == cell + off there).
				if off := (dz*g.grid+dy)*g.grid + dx; off > 0 {
					g.nbDeltas = append(g.nbDeltas, gridDelta{dx, dy, dz, off})
				}
			}
		}
	}
	sort.Slice(g.nbDeltas, func(i, j int) bool { return g.nbDeltas[i].off < g.nbDeltas[j].off })
	k := normalizeChunks(chunks, int64(g.cells))
	for _, run := range par.Chunks(int64(g.cells), int64(k)) {
		g.runs = append(g.runs, [2]int{int(run[0]), int(run[1])})
	}
	if len(g.runs) == 0 {
		g.runs = [][2]int{{0, g.cells}}
	}
	// A generating chunk holds its own cells' points plus the foreign
	// halo it regenerates (at most span() cells), so the resident bound
	// must count both.
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

// forwardNeighbors returns the grid neighbors of cell with a larger
// row-major index, ascending — the cells whose points this cell is
// responsible for pairing with its own. The delta table is sorted by
// offset and in-bounds neighbors satisfy idx == cell + off, so the
// output is ascending by construction.
func (g *RGG) forwardNeighbors(cell int) []int {
	xyz := g.cellCoords(cell)
	var out []int
	for _, d := range g.nbDeltas {
		x, y, z := xyz[0]+d.dx, xyz[1]+d.dy, xyz[2]+d.dz
		if x < 0 || x >= g.grid || y < 0 || y >= g.grid || z < 0 || z >= g.grid {
			continue
		}
		out = append(out, cell+d.off)
	}
	return out
}

// Dependencies returns the foreign cells chunk c regenerates: forward
// neighbors of its owned cells that fall outside its own cell run. Only
// cells within span() of the run's end can reach past it.
func (g *RGG) Dependencies(c int) []int64 {
	lo, hi := g.runs[c][0], g.runs[c][1]
	from := hi - g.span()
	if from < lo {
		from = lo
	}
	seen := map[int]bool{}
	for cell := from; cell < hi; cell++ {
		for _, nb := range g.forwardNeighbors(cell) {
			if nb >= hi {
				seen[nb] = true
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for nb := range seen {
		out = append(out, int64(nb))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// samplePoints regenerates cell c's sample — the Sample phase's pure
// function of (seed, cell): occupancy and id offset from the splitting
// tree, coordinates from the cell's own stream in SoA layout, each
// scaled into the cell's box. st routes tree queries through the
// worker's prefix table or memo (nil falls back to plain descents,
// for oracles and tests); neither changes a value, only its cost.
func (g *RGG) samplePoints(cell int, st *spatialState) *cellSample {
	return g.samplePointsAt(cell, g.cellCoords(cell), st)
}

// samplePointsAt is samplePoints for a caller that already knows the
// cell's grid coordinates (the sweep tracks them incrementally), saving
// the divmod decomposition per regenerated cell. xyz must equal
// cellCoords(cell).
func (g *RGG) samplePointsAt(cell int, xyz [3]int, st *spatialState) *cellSample {
	var cnt, start int64
	if st != nil {
		cnt = st.count(&g.tree, cell)
		start = st.prefix(&g.tree, cell)
	} else {
		cnt = g.tree.count(cell)
		start = g.tree.prefix(cell)
	}
	if cnt > math.MaxInt32 {
		// Unreachable under the construction-time resident bound; guards
		// the int32 hit indices all the same.
		panic(fmt.Sprintf("model: rgg cell %d occupancy %d overflows kernel index", cell, cnt))
	}
	s := allocSample(st, start, int(cnt), g.dim)
	if cnt == 0 {
		return s
	}
	rs := rng.NewStream2(g.seed, nsRGGCell, uint64(cell))
	// SoA batched fill: per-point draw order x, y(, z) — draw-for-draw
	// identical to the per-point UnitUniform loop it replaced.
	if g.dim == 2 {
		rs.UnitUniform2(s.xs, s.ys)
	} else {
		rs.UnitUniform3(s.xs, s.ys, s.zs)
	}
	fx := float64(xyz[0])
	for i, u := range s.xs {
		s.xs[i] = (fx + u) * g.inv
	}
	fy := float64(xyz[1])
	for i, u := range s.ys {
		s.ys[i] = (fy + u) * g.inv
	}
	if g.dim == 3 {
		fz := float64(xyz[2])
		for i, u := range s.zs {
			s.zs[i] = (fz + u) * g.inv
		}
	}
	return s
}

// sampleHold regenerates cell (with known coordinates) on a cache miss
// and caches it. The hot-path cache hit check is inlined at the call
// sites; this is the slow path only.
func (g *RGG) sampleHold(st *spatialState, cell int, xyz [3]int) *cellSample {
	e := g.samplePointsAt(cell, xyz, st)
	st.hold(cell, e)
	return e
}

// NewWorker returns the chunk generator bound to one worker-lifetime
// cell cache + tree lookup state. The cache is a ring of span()+1 slots:
// every cell read while one own cell is enumerated lies in
// [cell, cell+span], a window of consecutive indices that map to
// distinct slots — the ring contract newSpatialState documents.
func (g *RGG) NewWorker() stream.ShardGen {
	st := newSpatialState(&g.tree, &g.ctab, maxRGGChunkPoints, g.span()+1)
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateChunk(st, c, buf, emit)
	}
}

// generateChunk streams chunk c: for each owned cell in index
// order, its points plus every forward neighbor's points (regenerated
// through st's cell cache) are flattened into one contiguous halo, and
// each own point runs one kernel call over the halo tail behind it,
// emitting (u, v), u < v, for each pair within distance r. Neighbor
// segments are staged in ascending id order, so the stream is canonical
// by construction. Cell coordinates advance incrementally with the
// row-major scan instead of a divmod per cell.
func (g *RGG) generateChunk(st *spatialState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	lo, hi := g.runs[c][0], g.runs[c][1]
	if lo >= hi || g.n == 0 {
		return
	}
	b := newBatcher(buf, emit)
	xyz := g.cellCoords(lo)
	dim3 := g.dim == 3
	// With the shared occupancy bitmap available, a cell's emptiness is
	// one L1-resident bit test — far cheaper than a ring probe plus a
	// pointer chase into a cached empty sample. Empty cells contribute
	// nothing to any halo, so skipping them (as own cell or neighbor)
	// changes no emitted arc; they are simply never cached.
	occ := st.occ
	// The halo columns live in locals so the per-neighbor staging is a
	// plain append loop — no call, no slice-header writeback per cell.
	// Capacities persist in st across chunks via the write-back below.
	fxs, fys, fzs, fvids := st.fxs[:0], st.fys[:0], st.fzs[:0], st.fvids[:0]
	for cell := lo; cell < hi; cell++ {
		if occ != nil && occ[uint(cell)>>6]&(1<<(uint(cell)&63)) == 0 {
			if xyz[0]++; xyz[0] == g.grid {
				xyz[0] = 0
				if xyz[1]++; xyz[1] == g.grid {
					xyz[1] = 0
					xyz[2]++
				}
			}
			continue
		}
		own := st.ring[cell&st.ringMask]
		if own == nil || own.cell != cell {
			own = g.sampleHold(st, cell, xyz)
		}
		if own.n > 0 {
			fxs, fys, fzs, fvids = fxs[:0], fys[:0], fzs[:0], fvids[:0]
			for j := 0; j < own.n; j++ {
				fxs = append(fxs, own.xs[j])
				fys = append(fys, own.ys[j])
				fvids = append(fvids, own.start+int64(j))
			}
			if dim3 {
				fzs = append(fzs, own.zs...)
			}
			// Interior cells (no face contact) pass every per-delta bounds
			// check by construction, so skip the checks wholesale.
			interior := xyz[0] >= 1 && xyz[0] < g.grid-1 && xyz[1] >= 1 && xyz[1] < g.grid-1 &&
				(g.dim == 2 || (xyz[2] >= 1 && xyz[2] < g.grid-1))
			if interior {
				for _, d := range g.nbDeltas {
					nb := cell + d.off
					if occ != nil && occ[uint(nb)>>6]&(1<<(uint(nb)&63)) == 0 {
						continue
					}
					e := st.ring[nb&st.ringMask]
					if e == nil || e.cell != nb {
						e = g.sampleHold(st, nb, [3]int{xyz[0] + d.dx, xyz[1] + d.dy, xyz[2] + d.dz})
					}
					for j := 0; j < e.n; j++ {
						fxs = append(fxs, e.xs[j])
						fys = append(fys, e.ys[j])
						fvids = append(fvids, e.start+int64(j))
					}
					if dim3 {
						fzs = append(fzs, e.zs...)
					}
				}
			} else {
				for _, d := range g.nbDeltas {
					x, y, z := xyz[0]+d.dx, xyz[1]+d.dy, xyz[2]+d.dz
					if x < 0 || x >= g.grid || y < 0 || y >= g.grid || z < 0 || z >= g.grid {
						continue
					}
					nb := cell + d.off
					if occ != nil && occ[uint(nb)>>6]&(1<<(uint(nb)&63)) == 0 {
						continue
					}
					e := st.ring[nb&st.ringMask]
					if e == nil || e.cell != nb {
						e = g.sampleHold(st, nb, [3]int{x, y, z})
					}
					for j := 0; j < e.n; j++ {
						fxs = append(fxs, e.xs[j])
						fys = append(fys, e.ys[j])
						fvids = append(fvids, e.start+int64(j))
					}
					if dim3 {
						fzs = append(fzs, e.zs...)
					}
				}
			}
			ok := false
			if dim3 {
				ok = g.pairsCell3(b, st, own, fxs, fys, fzs, fvids)
			} else {
				ok = g.pairsCell2(b, st, own, fxs, fys, fvids)
			}
			if !ok {
				return
			}
		}
		st.dropOwn(cell)
		if xyz[0]++; xyz[0] == g.grid {
			xyz[0] = 0
			if xyz[1]++; xyz[1] == g.grid {
				xyz[1] = 0
				xyz[2]++
			}
		}
	}
	st.fxs, st.fys, st.fzs, st.fvids = fxs[:0], fys[:0], fzs[:0], fvids[:0]
	b.flush()
}

// pairsCell2 emits every within-r pair of own point i against the
// flattened halo tail flat[i+1:] — the own cell's later points followed
// by every staged neighbor cell's, in ascending id order. One kernel
// call per own point covers what used to be one call per neighbor cell;
// the flattened values and scan order are bit-identical to the
// per-cell segment walk, so the emitted arcs are too.
func (g *RGG) pairsCell2(b *batcher, st *spatialState, own *cellSample, fxs, fys []float64, fvids []int64) bool {
	for i := 0; i < own.n; i++ {
		st.hits = within2(own.xs[i], own.ys[i], g.r2, fxs[i+1:], fys[i+1:], st.hits[:0])
		if !b.addIdx(own.start+int64(i), fvids[i+1:], st.hits) {
			return false
		}
	}
	return true
}

// pairsCell3 is pairsCell2 with the 3D kernel.
func (g *RGG) pairsCell3(b *batcher, st *spatialState, own *cellSample, fxs, fys, fzs []float64, fvids []int64) bool {
	for i := 0; i < own.n; i++ {
		st.hits = within3(own.xs[i], own.ys[i], own.zs[i], g.r2,
			fxs[i+1:], fys[i+1:], fzs[i+1:], st.hits[:0])
		if !b.addIdx(own.start+int64(i), fvids[i+1:], st.hits) {
			return false
		}
	}
	return true
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

// within reports whether two AoS points lie at Euclidean distance <= r —
// the scalar reference predicate the SoA kernels mirror, kept for the
// brute-force oracles.
func (g *RGG) within(p, q []float64) bool {
	var d2 float64
	for d := 0; d < g.dim; d++ {
		diff := p[d] - q[d]
		d2 += diff * diff
	}
	return d2 <= g.r2
}
