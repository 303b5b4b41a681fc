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

// RHG is the sharded random hyperbolic graph: n vertices placed in a
// hyperbolic disk of radius R with radial density ∝ sinh(α·r) and
// uniform angle, an undirected edge between every pair at hyperbolic
// distance <= R, emitted once as the upper-triangle arc (u, v), u < v,
// in canonical order. The target average degree d̄ fixes R through the
// Krioukov condition R = 2·ln(2nξ²/(π·d̄)) with ξ = α/(α−1/2), and the
// power-law exponent γ fixes α = (γ−1)/2, so degrees follow a power
// law with exponent γ while triangles close geometrically — the source
// paper's flagship "hard" model, because edges cross cell boundaries
// at range that depends on both endpoints' radii.
//
// Two-phase shape:
//
// Sample — the disk is cut into annulus bands of radial width ≈ ln2/α
// (outermost first), each band into equal angular cells. Cell
// occupancies realize an exact-n multinomial via the shared splitTree
// (uncapacitated, weights proportional to each cell's probability
// mass), and cell c's coordinates come from the pure stream
// (seed, nsRHGCell, c): one uniform for the angle, one inverse-CDF
// draw (rng.HyperbolicRadius) for the radius per point. Vertex ids are
// cell-major, so id order agrees with cell order.
//
// Enumerate — bands are ordered OUTERMOST first, so a cell's forward
// partners (cells with larger index that can hold a neighbor) are its
// same-band angular window plus windows into the sparser inner bands;
// the high-degree hub cells near the disk center come last and are
// everyone's dependency rather than owning an unbounded halo
// themselves. The angular reach between two bands is bounded by the
// distance-threshold angle at the bands' minimum radii (the reach is
// monotonically decreasing in both radii), widened by one cell for
// rounding; the exact pairwise predicate decides every edge, so the
// windows only gate candidate enumeration, never correctness. Each
// chunk owns a contiguous run of cells, regenerates foreign partner
// cells on demand (the declared Dependencies), and emits each pair
// once from the smaller endpoint's cell — ascending per-u segments, so
// the stream is canonical without sorting.
//
// The chunk grouping touches no random draw — bands, cells,
// occupancies and coordinates are fixed by (n, d̄, γ, seed) alone — so
// the stream is byte-identical for every chunk AND worker count.
type RHG struct {
	n     int64
	deg   float64 // target average degree d̄
	gamma float64
	seed  uint64

	alpha float64
	R     float64 // disk radius = distance threshold
	coshR float64

	bands  []rhgBand
	cells  int       // total angular cells over all bands
	totW   int64     // cellWeight(0, cells)
	maxAng []float64 // B×B angular reach bound, row-major by band pair
	tree   splitTree
	ctab   cellTable // lazy full prefix table of tree
	runs   [][2]int  // cell range per chunk
	starts []int64   // vertex-id offset at each chunk boundary (len runs+1)
}

// rhgBand is one annulus [rLo, rHi) cut into `cells` equal angular
// cells of width `width`, holding the hoisted constants of the radial
// inverse CDF and of the angular-reach bound.
type rhgBand struct {
	rLo, rHi       float64
	coshLo, sinhLo float64 // cosh/sinh(rLo): reach-bound terms
	coshALo, spanA float64 // cosh(α·rLo), cosh(α·rHi)−cosh(α·rLo): CDF terms
	cells          int
	cellStart      int // flattened index of the band's first cell
	width          float64
	weight         int64 // integer occupancy weight per cell
}

// maxRHGVertices bounds n so id and occupancy arithmetic stays well
// inside int64.
const maxRHGVertices = int64(1) << 40

// maxRHGBands bounds the band count so the reach matrix and per-band
// tables stay O(1)-small; wider bands only loosen the candidate
// windows, never correctness.
const maxRHGBands = 256

// maxRHGCellsTotal bounds the total cell count: splitting-tree node ids
// pack two cell indices into one uint64, and descents are O(log cells).
const maxRHGCellsTotal = 1 << 22

// rhgTargetOccupancy is the expected points per cell the angular
// subdivision aims for: small enough that the per-cell all-pairs inner
// loop is cheap, large enough that per-cell stream setup amortizes.
const rhgTargetOccupancy = 4.0

// rhgWeightScale converts per-cell probability mass to the integer
// weights the splitting tree divides by; 2^40 keeps three extra decimal
// digits beyond the largest admitted n.
const rhgWeightScale = float64(int64(1) << 40)

// maxRHGResidentPoints caps the regenerated foreign halo a generating
// chunk keeps cached. Crossing it drops the cache: foreign cells are
// pure functions of (seed, cell), so eviction is a speed/memory trade
// that cannot change a byte.
const maxRHGResidentPoints = int64(1) << 21

// NewRHG returns the sharded random hyperbolic graph generator with n
// vertices, target average degree deg, and power-law exponent gamma
// (> 2). chunks = 0 means DefaultChunks; like rgg, the chunk count only
// groups cells for enumeration and is NOT part of the stream identity.
func NewRHG(n int64, deg, gamma float64, seed uint64, chunks int) (*RHG, error) {
	if n < 0 || n > maxRHGVertices {
		return nil, fmt.Errorf("model: rhg vertex count %d out of [0, %d]", n, maxRHGVertices)
	}
	if math.IsNaN(deg) || math.IsInf(deg, 0) || deg <= 0 {
		return nil, fmt.Errorf("model: rhg average degree %v out of (0, ∞)", deg)
	}
	if math.IsNaN(gamma) || gamma <= 2 || gamma > 64 {
		return nil, fmt.Errorf("model: rhg power-law exponent %v out of (2, 64]", gamma)
	}
	g := &RHG{n: n, deg: deg, gamma: gamma, seed: seed}
	g.alpha = (gamma - 1) / 2
	xi := g.alpha / (g.alpha - 0.5)
	if n == 0 {
		// No points: any positive disk radius yields the same empty stream.
		g.R = 1
	} else {
		g.R = 2 * math.Log(2*float64(n)*xi*xi/(math.Pi*deg))
	}
	if g.R <= 0 {
		return nil, fmt.Errorf("model: rhg average degree %v too large for n=%d (disk radius %v <= 0)", deg, n, g.R)
	}
	if g.alpha*g.R > 500 {
		// cosh(α·R) overflows float64 near exponent 709; long before that
		// the occupancy weights lose all resolution.
		return nil, fmt.Errorf("model: rhg α·R = %v too large for float64 radial weights (max 500)", g.alpha*g.R)
	}
	g.coshR = math.Cosh(g.R)

	// Bands: the outer half [R/2, R] in ≈ln2/α-wide annuli — each step
	// halves the radial density scale, the granularity at which the
	// reach bound stays tight — and the inner disk [0, R/2) as one band
	// (every pair of points with r1+r2 <= R connects, so finer inner
	// bands buy nothing). Outermost FIRST: see the type comment.
	half := g.R / 2
	nOuter := int(math.Ceil(half / (math.Ln2 / g.alpha)))
	if nOuter < 1 {
		nOuter = 1
	}
	if nOuter > maxRHGBands-1 {
		nOuter = maxRHGBands - 1
	}
	w := half / float64(nOuter)
	g.bands = make([]rhgBand, nOuter+1)
	for b := 0; b < nOuter; b++ {
		g.bands[b].rHi = g.R - float64(b)*w
		g.bands[b].rLo = g.R - float64(b+1)*w
	}
	g.bands[nOuter].rHi = g.bands[nOuter-1].rLo
	g.bands[nOuter].rLo = 0

	// Angular cells and occupancy weights per band, proportional to the
	// band's probability mass under the sinh(α·r) radial law.
	denom := math.Cosh(g.alpha*g.R) - 1
	var totCells int64
	for b := range g.bands {
		bd := &g.bands[b]
		bd.coshLo = math.Cosh(bd.rLo)
		bd.sinhLo = math.Sinh(bd.rLo)
		bd.coshALo = math.Cosh(g.alpha * bd.rLo)
		bd.spanA = math.Cosh(g.alpha*bd.rHi) - bd.coshALo
		mass := bd.spanA / denom
		k := int64(math.Round(float64(n) * mass / rhgTargetOccupancy))
		if k < 1 {
			k = 1
		}
		if k > maxRHGCellsTotal {
			k = maxRHGCellsTotal
		}
		bd.cells = int(k)
		totCells += k
	}
	if totCells > maxRHGCellsTotal {
		scale := float64(maxRHGCellsTotal) / float64(totCells)
		for b := range g.bands {
			if k := int(float64(g.bands[b].cells) * scale); k >= 1 {
				g.bands[b].cells = k
			} else {
				g.bands[b].cells = 1
			}
		}
	}
	for b := range g.bands {
		bd := &g.bands[b]
		bd.cellStart = g.cells
		g.cells += bd.cells
		bd.width = 2 * math.Pi / float64(bd.cells)
		mass := bd.spanA / denom
		bd.weight = int64(math.Round(mass / float64(bd.cells) * rhgWeightScale))
		if bd.weight < 1 {
			bd.weight = 1
		}
	}
	g.totW = g.cellWeight(0, g.cells)

	// Pairwise angular reach bound: the threshold angle at the two
	// bands' minimum radii — reach decreases in both radii, so this
	// dominates every pair drawn from the two bands. π when the inner
	// radii alone connect (r1+r2 <= R; also absorbs sinh(0) = 0).
	nb := len(g.bands)
	g.maxAng = make([]float64, nb*nb)
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			r1, r2 := &g.bands[b1], &g.bands[b2]
			ang := math.Pi
			if r1.rLo+r2.rLo > g.R {
				cv := (r1.coshLo*r2.coshLo - g.coshR) / (r1.sinhLo * r2.sinhLo)
				if cv > 1 {
					cv = 1
				}
				if cv < -1 {
					cv = -1
				}
				ang = math.Acos(cv)
			}
			g.maxAng[b1*nb+b2] = ang
		}
	}

	g.tree = splitTree{
		seed:   seed,
		ns:     nsRHGSplit,
		slots:  g.cells,
		total:  n,
		weight: g.cellWeight,
	}
	k := normalizeChunks(chunks, int64(g.cells))
	for _, run := range par.Chunks(int64(g.cells), int64(k)) {
		g.runs = append(g.runs, [2]int{int(run[0]), int(run[1])})
	}
	if len(g.runs) == 0 {
		g.runs = [][2]int{{0, g.cells}}
	}
	memo := make(splitMemo, 2*len(g.runs))
	g.starts = make([]int64, len(g.runs)+1)
	for i, run := range g.runs {
		g.starts[i] = g.tree.prefixMemo(run[0], memo)
	}
	g.starts[len(g.runs)] = n
	return g, nil
}

func buildRHG(p *Params, seed uint64, chunks int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	deg, err := p.FloatReq("d")
	if err != nil {
		return nil, err
	}
	gamma, err := p.Float("gamma", 3)
	if err != nil {
		return nil, err
	}
	return NewRHG(n, deg, gamma, seed, chunks)
}

func init() {
	Register("rhg", buildRHG)
}

// cellWeight returns the summed integer occupancy weight of cells
// [lo, hi) — the splitting tree's exactly additive weight function,
// evaluated as an O(bands) overlap scan.
func (g *RHG) cellWeight(lo, hi int) int64 {
	var tot int64
	for b := range g.bands {
		bd := &g.bands[b]
		l, h := lo, hi
		if l < bd.cellStart {
			l = bd.cellStart
		}
		if e := bd.cellStart + bd.cells; h > e {
			h = e
		}
		if h > l {
			tot += bd.weight * int64(h-l)
		}
	}
	return tot
}

// cellBand returns the band index owning flattened cell index c.
func (g *RHG) cellBand(c int) int {
	return sort.Search(len(g.bands), func(b int) bool {
		return g.bands[b].cellStart+g.bands[b].cells > c
	})
}

// Name returns the canonical spec of this generator.
func (g *RHG) Name() string {
	return fmt.Sprintf("rhg:n=%d,d=%s,gamma=%s,seed=%d,chunks=%d",
		g.n, formatFloat(g.deg), formatFloat(g.gamma), g.seed, len(g.runs))
}

// NumVertices returns n.
func (g *RHG) NumVertices() int64 { return g.n }

// NumArcs returns -1: the edge count is random.
func (g *RHG) NumArcs() int64 { return -1 }

// TargetDegree returns the average degree the disk radius was solved
// for.
func (g *RHG) TargetDegree() float64 { return g.deg }

// DiskRadius returns the hyperbolic disk radius R (also the distance
// threshold).
func (g *RHG) DiskRadius() float64 { return g.R }

// Chunks returns the fixed chunk count.
func (g *RHG) Chunks() int { return len(g.runs) }

// CellCount returns the number of sample cells over all bands.
func (g *RHG) CellCount() int { return g.cells }

// CellVertices returns the exact occupancy of cell c — the Sample
// phase's splitting tree, recomputable by any worker.
func (g *RHG) CellVertices(c int) int64 { return g.tree.count(c) }

// ChunkRange returns chunk c's vertex-id range: ids are cell-major, so
// contiguous cell runs own contiguous id ranges.
func (g *RHG) ChunkRange(c int) (lo, hi int64) {
	return g.starts[c], g.starts[c+1]
}

// ChunkWeight returns chunk c's expected work: twice its expected point
// count (own points are paired against a regenerated halo of the same
// order) plus a constant floor.
func (g *RHG) ChunkWeight(c int) int64 {
	if g.totW == 0 {
		return 1
	}
	w := g.cellWeight(g.runs[c][0], g.runs[c][1])
	return 1 + int64(2*float64(g.n)*float64(w)/float64(g.totW))
}

// ChunkArcs returns -1: per-chunk counts are random.
func (g *RHG) ChunkArcs(c int) int64 { return -1 }

// forwardPartners returns the cells with index > c whose angular window
// can hold a neighbor of a point in cell c, ascending: the same-band
// window plus a window into each inner band (bands are outermost
// first, so inner bands have larger indices). Windows are widened by
// one cell per side for floating-point safety; the exact distance
// predicate decides every pair, so over-wide windows cost comparisons,
// not correctness.
func (g *RHG) forwardPartners(c int) []int { return g.appendForwardPartners(c, nil) }

// appendForwardPartners is forwardPartners appending into a caller
// scratch slice. A band's wrapped window {j mod cells : jLo <= j <= jHi}
// covers fewer than cells indices (the full-range branch catches the
// rest), so it is one contiguous index range — or two when it straddles
// the wrap, in which case the low range is appended before the high
// one. Bands are visited in ascending cellStart order, so the output is
// ascending with no per-cell sort, index for index what the sorted
// enumeration produced.
func (g *RHG) appendForwardPartners(c int, out []int) []int {
	b1 := g.cellBand(c)
	own := &g.bands[b1]
	j1 := c - own.cellStart
	th0 := float64(j1) * own.width
	th1 := th0 + own.width
	nb := len(g.bands)
	for b2 := b1; b2 < nb; b2++ {
		bd := &g.bands[b2]
		ang := g.maxAng[b1*nb+b2]
		jLo := int(math.Floor((th0-ang)/bd.width)) - 1
		jHi := int(math.Floor((th1+ang)/bd.width)) + 1
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

// rhgRun is one contiguous forward-partner cell range [lo, hi) inside
// band `band` — the range form of appendForwardPartners' output.
type rhgRun struct {
	band   int
	lo, hi int
}

// appendForwardRuns is appendForwardPartners emitting maximal
// contiguous cell ranges instead of individual indices: flattening each
// run in order yields index for index the same cell sequence. O(bands)
// per call instead of O(window cells).
func (g *RHG) appendForwardRuns(c int, out []rhgRun) []rhgRun {
	b1 := g.cellBand(c)
	own := &g.bands[b1]
	j1 := c - own.cellStart
	th0 := float64(j1) * own.width
	th1 := th0 + own.width
	nb := len(g.bands)
	push := func(band, lo, hi int) {
		if lo <= c {
			lo = c + 1
		}
		if hi > lo {
			out = append(out, rhgRun{band: band, lo: lo, hi: hi})
		}
	}
	for b2 := b1; b2 < nb; b2++ {
		bd := &g.bands[b2]
		ang := g.maxAng[b1*nb+b2]
		jLo := int(math.Floor((th0-ang)/bd.width)) - 1
		jHi := int(math.Floor((th1+ang)/bd.width)) + 1
		end := bd.cellStart + bd.cells
		if jHi-jLo+1 >= bd.cells {
			push(b2, bd.cellStart, end)
			continue
		}
		a := ((jLo % bd.cells) + bd.cells) % bd.cells
		z := ((jHi % bd.cells) + bd.cells) % bd.cells
		if a <= z {
			push(b2, bd.cellStart+a, bd.cellStart+z+1)
			continue
		}
		push(b2, bd.cellStart, bd.cellStart+z+1)
		push(b2, bd.cellStart+a, end)
	}
	return out
}

// Dependencies returns the foreign cells chunk c regenerates: forward
// partners of its owned cells that fall outside its own cell run.
func (g *RHG) Dependencies(c int) []int64 {
	lo, hi := g.runs[c][0], g.runs[c][1]
	seen := map[int]bool{}
	for cell := lo; cell < hi; cell++ {
		for _, nb := range g.forwardPartners(cell) {
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

// samplePoints regenerates cell c's points — the Sample phase's pure
// function of (seed, cell): occupancy and id offset from the splitting
// tree, then per point one uniform for the angle within the cell's
// window and one inverse-CDF draw for the radius within the band, both
// served from one batched raw-uniform fill (u[2i] angle, u[2i+1]
// radius — the exact draw order of the per-point loop it replaced).
// Points are stored pre-transformed as SoA columns (cosθ, sinθ,
// cosh r, sinh r) so the pairwise predicate needs no trigonometry. st
// routes tree queries and the uniform scratch through the worker state
// (nil falls back to plain descents and a local buffer, for oracles
// and tests); neither changes a value, only its cost.
func (g *RHG) samplePoints(cell int, st *spatialState) *cellSample {
	var cnt, start int64
	if st != nil {
		cnt = st.count(&g.tree, cell)
		start = st.prefix(&g.tree, cell)
	} else {
		cnt = g.tree.count(cell)
		start = g.tree.prefix(cell)
	}
	if cnt > math.MaxInt32 {
		// Unreachable under the resident cap; guards the int32 hit indices.
		panic(fmt.Sprintf("model: rhg cell %d occupancy %d overflows kernel index", cell, cnt))
	}
	s := allocSample(st, start, int(cnt), 4)
	if cnt == 0 {
		return s
	}
	g.samplePointsInto(cell, st, s.xs, s.ys, s.zs, s.ws)
	return s
}

// samplePointsInto writes cell's pre-transformed points into the given
// column slices (each len == the cell's occupancy). It is the draw core
// of samplePoints — the destination never influences a value — shared
// by the cellSample path and the panel strips.
func (g *RHG) samplePointsInto(cell int, st *spatialState, xs, ys, zs, ws []float64) {
	cnt := len(xs)
	b := g.cellBand(cell)
	bd := &g.bands[b]
	th0 := float64(cell-bd.cellStart) * bd.width
	invAlpha := 1 / g.alpha
	rs := rng.NewStream2(g.seed, nsRHGCell, uint64(cell))
	need := 2 * cnt
	var u []float64
	if st != nil {
		if cap(st.unif) < need {
			st.unif = make([]float64, need)
		}
		u = st.unif[:need]
	} else {
		u = make([]float64, need)
	}
	rs.UnitUniform(u)
	for i := 0; i < cnt; i++ {
		theta := th0 + u[2*i]*bd.width
		// Inlined rng.HyperbolicRadius on the buffered draw — the
		// identical float expression.
		r := math.Acosh(bd.coshALo+u[2*i+1]*bd.spanA) * invAlpha
		sinT, cosT := math.Sincos(theta)
		xs[i] = cosT
		ys[i] = sinT
		zs[i] = math.Cosh(r)
		ws[i] = math.Sinh(r)
	}
}

// within reports whether two pre-transformed AoS points lie at
// hyperbolic distance <= R: cosh d = cosh r1·cosh r2 − sinh r1·sinh
// r2·cos Δθ, with cos Δθ expanded through the stored (cosθ, sinθ) —
// the scalar reference predicate rhgHits mirrors, kept for the
// brute-force oracles.
func (g *RHG) within(p, q []float64) bool {
	return p[2]*q[2]-p[3]*q[3]*(p[0]*q[0]+p[1]*q[1]) <= g.coshR
}

// rhgHits appends to hits the ascending indices j of the SoA segment
// within hyperbolic distance R of the point (c0, s0, ch, sh). Blocked
// kernelLanes at a time with branchless mask accumulation, like the rgg
// kernels; every lane and the scalar tail evaluate the same expression
// tree as within, so any platform's rounding/fusion decisions are
// identical and the emitted bits cannot move.
func rhgHits(c0, s0, ch, sh, coshR float64, xs, ys, zs, ws []float64, hits []int32) []int32 {
	ys = ys[:len(xs)]
	zs = zs[:len(xs)]
	ws = ws[:len(xs)]
	j := 0
	for ; j+kernelLanes <= len(xs); j += kernelLanes {
		bx := xs[j : j+kernelLanes : j+kernelLanes]
		by := ys[j : j+kernelLanes : j+kernelLanes]
		bz := zs[j : j+kernelLanes : j+kernelLanes]
		bw := ws[j : j+kernelLanes : j+kernelLanes]
		var mask uint32
		for k := 0; k < kernelLanes; k++ {
			var hit uint32
			if ch*bz[k]-sh*bw[k]*(c0*bx[k]+s0*by[k]) <= coshR {
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
		if ch*zs[j]-sh*ws[j]*(c0*xs[j]+s0*ys[j]) <= coshR {
			hits = append(hits, int32(j))
		}
	}
	return hits
}

// getCell reads cell through the worker's cache, regenerating on miss.
func (g *RHG) getCell(st *spatialState, cell int) *cellSample {
	if e := st.lookup(cell); e != nil {
		return e
	}
	e := g.samplePoints(cell, st)
	st.hold(cell, e)
	return e
}

// maxRHGRingCells gates the direct-indexed ring cache: one slot per
// cell (8 bytes each, ≤ 8 MiB per worker at the gate). A cell's forward
// partners can sit anywhere ahead of it — inner bands are everyone's
// dependency — so the ring must cover the whole cell space; larger cell
// spaces fall back to the map cache.
const maxRHGRingCells = 1 << 20

// rhgPanelMaxPoints gates the band-panel worker state: every point of
// the graph is materialized at most once across the panels, so the
// whole-graph point count must fit under the resident cap. A var so
// tests can force the fallback path.
var rhgPanelMaxPoints = maxRHGResidentPoints

// rhgState is the strip-mode worker state: the whole cell space
// flattened in cell order into one worker-lifetime SoA strip, filled
// lazily cell by cell. Vertex ids are cell-major over the whole graph,
// so the point at strip offset p has global id exactly p — a forward
// window of cells (empty ones included) is a contiguous strip range
// whose kernel hit indices feed addRun directly, with no per-cell
// staging, copying, or id column. Every strip value is the same pure
// (seed, cell) draw the cellSample path makes. Each point is
// materialized at most once, so residency is bounded by the graph
// size, which the strip gate keeps under the eviction cap — no
// eviction is ever needed.
type rhgState struct {
	st             *spatialState
	xs, ys, zs, ws []float64
	filled         []bool // per cell
	runs           []rhgRun
	prs            [][2]int // forward point ranges of the current own cell
}

// ensure fills cell's strip range [tab[cell], tab[cell+1]) if it is not
// resident yet.
func (ps *rhgState) ensure(g *RHG, cell int) {
	if ps.filled[cell] {
		return
	}
	ps.filled[cell] = true
	tab := ps.st.tab
	lo, hi := int(tab[cell]), int(tab[cell+1])
	if hi > lo {
		g.samplePointsInto(cell, ps.st, ps.xs[lo:hi], ps.ys[lo:hi], ps.zs[lo:hi], ps.ws[lo:hi])
	}
}

// stripMode reports whether workers use the flattened sample strip: the
// full prefix table exists and the whole graph fits under the resident
// cap.
func (g *RHG) stripMode() bool {
	return g.ctab.get(&g.tree) != nil && g.n <= rhgPanelMaxPoints
}

// NewWorker returns the chunk generator bound to one worker-lifetime
// state: the flattened sample strip in strip mode, else the generic
// bounded cell cache (ring when the cell space is small enough to
// direct-index, map beyond).
func (g *RHG) NewWorker() stream.ShardGen {
	if g.stripMode() {
		n := int(g.n)
		ps := &rhgState{
			st:     newSpatialState(&g.tree, &g.ctab, maxRHGResidentPoints, 0),
			xs:     make([]float64, n),
			ys:     make([]float64, n),
			zs:     make([]float64, n),
			ws:     make([]float64, n),
			filled: make([]bool, g.cells),
		}
		return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
			g.generatePanels(ps, c, buf, emit)
		}
	}
	window := g.cells
	if window > maxRHGRingCells {
		window = 0 // map fallback
	}
	st := newSpatialState(&g.tree, &g.ctab, maxRHGResidentPoints, window)
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateCells(st, c, buf, emit)
	}
}

// generateCells streams chunk c over the bounded cell cache: for each
// owned cell in index order, its points are compared against the cell's
// own later points and every forward partner cell's points (regenerated
// through st's cell cache), emitting (u, v), u < v, for each pair within hyperbolic
// distance R. Partner segments are visited in ascending cell order, so
// the stream is canonical by construction. Owned cells are dropped once
// processed (later cells only look forward); the foreign halo stays
// until it crosses the resident cap, then is dropped wholesale —
// regeneration is pure, so eviction never changes a byte.
func (g *RHG) generateCells(st *spatialState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	lo, hi := g.runs[c][0], g.runs[c][1]
	if lo >= hi || g.n == 0 {
		return
	}
	b := newBatcher(buf, emit)
	for cell := lo; cell < hi; cell++ {
		own := g.getCell(st, cell)
		if own.n > 0 {
			st.cand = g.appendForwardPartners(cell, st.cand[:0])
			st.resetFlat()
			st.appendFlat(own, 4)
			for _, nb := range st.cand {
				if e := g.getCell(st, nb); e.n > 0 {
					st.appendFlat(e, 4)
				}
			}
			if !g.pairsCell(b, st, own) {
				return
			}
		}
		st.dropOwn(cell)
	}
	b.flush()
}

// pairsCell emits every within-R pair of own point i against the
// flattened halo tail flat[i+1:] — the own cell's later points followed
// by every staged partner cell's, in ascending id order. One kernel
// call per own point covers what used to be one call per partner cell;
// the flattened values and scan order are bit-identical to the per-cell
// walk, so the emitted arcs are too.
func (g *RHG) pairsCell(b *batcher, st *spatialState, own *cellSample) bool {
	for i := 0; i < own.n; i++ {
		st.hits = rhgHits(own.xs[i], own.ys[i], own.zs[i], own.ws[i], g.coshR,
			st.fxs[i+1:], st.fys[i+1:], st.fzs[i+1:], st.fws[i+1:], st.hits[:0])
		if !b.addIdx(own.start+int64(i), st.fvids[i+1:], st.hits) {
			return false
		}
	}
	return true
}

// generatePanels is generateCells over the strip state: per owned
// cell it materializes the forward windows as contiguous strip point
// ranges (ids are cell-major, so a range of cells — empty ones included
// — is a range of consecutive ids), coalesces point-adjacent ranges
// (scanning across an empty gap cell adds zero points), folds the own
// tail into the first range when they touch (the common non-wrapped
// same-band window), and runs one kernel call per range per own point,
// emitting through addRun exactly as the per-cell walk does. Same
// cells, same draw values, same scan order ⇒ the same bytes; only the
// staging cost is gone.
func (g *RHG) generatePanels(ps *rhgState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	st := ps.st
	lo, hi := g.runs[c][0], g.runs[c][1]
	if lo >= hi || g.n == 0 {
		return
	}
	b := newBatcher(buf, emit)
	tab := st.tab
	for cell := lo; cell < hi; cell++ {
		ownLo, ownHi := int(tab[cell]), int(tab[cell+1])
		if ownHi == ownLo {
			continue
		}
		ps.ensure(g, cell)
		ps.runs = g.appendForwardRuns(cell, ps.runs[:0])
		prs := ps.prs[:0]
		for _, r := range ps.runs {
			pLo, pHi := int(tab[r.lo]), int(tab[r.hi])
			if pHi == pLo {
				continue
			}
			if k := len(prs); k > 0 && prs[k-1][1] == pLo {
				prs[k-1][1] = pHi
			} else {
				prs = append(prs, [2]int{pLo, pHi})
			}
			for cc := r.lo; cc < r.hi; cc++ {
				ps.ensure(g, cc)
			}
		}
		ps.prs = prs
		head := ownHi
		if len(prs) > 0 && prs[0][0] == ownHi {
			head = prs[0][1]
			prs = prs[1:]
		}
		for pi := ownLo; pi < ownHi; pi++ {
			c0, s0, ch, sh := ps.xs[pi], ps.ys[pi], ps.zs[pi], ps.ws[pi]
			u := int64(pi)
			st.hits = rhgHits(c0, s0, ch, sh, g.coshR,
				ps.xs[pi+1:head], ps.ys[pi+1:head], ps.zs[pi+1:head], ps.ws[pi+1:head], st.hits[:0])
			if !b.addRun(u, u+1, st.hits) {
				return
			}
			for _, pr := range prs {
				st.hits = rhgHits(c0, s0, ch, sh, g.coshR,
					ps.xs[pr[0]:pr[1]], ps.ys[pr[0]:pr[1]], ps.zs[pr[0]:pr[1]], ps.ws[pr[0]:pr[1]], st.hits[:0])
				if !b.addRun(u, int64(pr[0]), st.hits) {
					return
				}
			}
		}
	}
	b.flush()
}
