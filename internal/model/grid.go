package model

import (
	"fmt"
	"math"

	"kronvalid/internal/par"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// Grid is the sharded lattice model: vertices are the points of an
// X×Y(×Z) grid (row-major ids, x fastest), and each lattice edge —
// axis-aligned nearest neighbors, plus the per-axis wraparound edges
// when wrap is set and the axis has length >= 3 — is present
// independently with probability p. Every edge is emitted once as the
// upper-triangle arc (u, v), u < v, in canonical order.
//
// The candidate edges of a vertex u, listed by ascending target id,
// are: x-successor u+1, x-wraparound u+(X−1) (only from x = 0),
// y-successor u+X, y-wraparound u+X·(Y−1) (only from y = 0), and the
// z analogues — so the per-u segments, and therefore the chunk
// streams, are canonical by construction. An axis of length 2 gets no
// wraparound edge (it would duplicate the successor edge) and an axis
// of length 1 gets no edges at all, so the candidate set is always
// duplicate-free.
//
// Sample/Enumerate shape: the model is dependence-free — both
// endpoints of every candidate are determined by the source vertex
// alone — so cells coincide with chunks (contiguous vertex-id ranges)
// and chunk c draws from the single stream (seed, nsGridChunk, c),
// walking its flattened candidate index space with geometric skips:
// O(expected edges) draws, like er. The chunk count is therefore part
// of the stream identity, as for the other per-chunk-stream models.
// At p = 1 the skip walk degenerates to emitting every candidate with
// zero draws, and all counts are exact in closed form.
type Grid struct {
	noDeps
	dim     int
	x, y, z int64
	p       float64
	wrap    bool
	seed    uint64
	n       int64
	runs    [][2]int64
}

// maxGridVertices bounds X·Y·Z so id and candidate-index arithmetic
// stays well inside int64 (at most 3 candidates per vertex).
const maxGridVertices = int64(1) << 40

// NewGrid returns the sharded lattice generator for dim ∈ {2, 3}; for
// dim 2 the z extent is forced to 1. chunks = 0 means DefaultChunks.
func NewGrid(x, y, z int64, p float64, wrap bool, dim int, seed uint64, chunks int) (*Grid, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("model: grid dimension %d is not 2 or 3", dim)
	}
	if dim == 2 {
		z = 1
	}
	if x < 1 || y < 1 || z < 1 {
		return nil, fmt.Errorf("model: grid extents %d×%d×%d must all be >= 1", x, y, z)
	}
	if x > maxGridVertices || y > maxGridVertices/x || z > maxGridVertices/(x*y) {
		return nil, fmt.Errorf("model: grid %d×%d×%d exceeds %d vertices", x, y, z, maxGridVertices)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("model: grid edge probability %v out of [0, 1]", p)
	}
	g := &Grid{dim: dim, x: x, y: y, z: z, p: p, wrap: wrap, seed: seed, n: x * y * z}
	k := normalizeChunks(chunks, g.n)
	g.runs = par.Chunks(g.n, int64(k))
	if len(g.runs) == 0 {
		g.runs = [][2]int64{{0, g.n}}
	}
	return g, nil
}

func buildGrid(p *Params, seed uint64, chunks int, dim int) (Generator, error) {
	x, err := p.Int64("x", -1)
	if err != nil {
		return nil, err
	}
	y, err := p.Int64("y", -1)
	if err != nil {
		return nil, err
	}
	z := int64(1)
	if dim == 3 {
		if z, err = p.Int64("z", -1); err != nil {
			return nil, err
		}
	}
	prob, err := p.Float("p", 1)
	if err != nil {
		return nil, err
	}
	wrap, err := p.Bool("wrap", false)
	if err != nil {
		return nil, err
	}
	return NewGrid(x, y, z, prob, wrap, dim, seed, chunks)
}

func init() {
	Register("grid2d", func(p *Params, seed uint64, chunks int) (Generator, error) { return buildGrid(p, seed, chunks, 2) })
	Register("grid3d", func(p *Params, seed uint64, chunks int) (Generator, error) { return buildGrid(p, seed, chunks, 3) })
}

// Name returns the canonical spec of this generator.
func (g *Grid) Name() string {
	if g.dim == 2 {
		return fmt.Sprintf("grid2d:x=%d,y=%d,p=%s,wrap=%t,seed=%d,chunks=%d",
			g.x, g.y, formatFloat(g.p), g.wrap, g.seed, len(g.runs))
	}
	return fmt.Sprintf("grid3d:x=%d,y=%d,z=%d,p=%s,wrap=%t,seed=%d,chunks=%d",
		g.x, g.y, g.z, formatFloat(g.p), g.wrap, g.seed, len(g.runs))
}

// NumVertices returns X·Y·Z.
func (g *Grid) NumVertices() int64 { return g.n }

// NumArcs returns the exact lattice edge count when p = 1, and -1
// otherwise.
func (g *Grid) NumArcs() int64 {
	if g.p < 1 {
		return -1
	}
	return g.candPrefix(g.n)
}

// Chunks returns the fixed chunk count.
func (g *Grid) Chunks() int { return len(g.runs) }

// ChunkRange returns chunk c's vertex-id range.
func (g *Grid) ChunkRange(c int) (lo, hi int64) {
	return g.runs[c][0], g.runs[c][1]
}

// ChunkWeight returns chunk c's candidate count — the exact length of
// its skip walk's index space — plus a constant floor.
func (g *Grid) ChunkWeight(c int) int64 {
	return 1 + g.candPrefix(g.runs[c][1]) - g.candPrefix(g.runs[c][0])
}

// ChunkArcs returns chunk c's exact arc count when p = 1, and -1
// otherwise.
func (g *Grid) ChunkArcs(c int) int64 {
	if g.p < 1 {
		return -1
	}
	return g.candPrefix(g.runs[c][1]) - g.candPrefix(g.runs[c][0])
}

// axisEdges returns the summed candidate indicator over a full axis of
// the given length: length−1 successor edges, plus the wraparound edge
// when the axis is long enough for it to be a new edge.
func (g *Grid) axisEdges(length int64) int64 {
	if g.wrap && length >= 3 {
		return length
	}
	return length - 1
}

// axisInd returns the candidate indicator of one coordinate value v on
// an axis of the given length: 1 for the successor edge (v < length−1),
// plus 1 for the wraparound edge (v = 0, wrapping, length >= 3).
func (g *Grid) axisInd(v, length int64) int64 {
	var c int64
	if v < length-1 {
		c++
	}
	if g.wrap && length >= 3 && v == 0 {
		c++
	}
	return c
}

// axisIndPrefix returns the summed candidate indicator over coordinate
// values [0, r), 0 <= r <= length.
func (g *Grid) axisIndPrefix(r, length int64) int64 {
	c := r
	if c > length-1 {
		c = length - 1
	}
	if g.wrap && length >= 3 && r >= 1 {
		c++
	}
	return c
}

// candPrefix returns the number of candidate edges whose source id is
// < t, in closed form: each axis contributes independently, summed over
// the id prefix by periodicity — the x coordinate has period X within
// each row, y has period X·Y within each plane, z spans the id space
// once.
func (g *Grid) candPrefix(t int64) int64 {
	cnt := (t/g.x)*g.axisEdges(g.x) + g.axisIndPrefix(t%g.x, g.x)
	xy := g.x * g.y
	rem := t % xy
	cnt += (t/xy)*g.x*g.axisEdges(g.y) +
		g.x*g.axisIndPrefix(rem/g.x, g.y) + (rem%g.x)*g.axisInd(rem/g.x, g.y)
	if g.dim == 3 {
		cnt += xy*g.axisIndPrefix(t/xy, g.z) + (t%xy)*g.axisInd(t/xy, g.z)
	}
	return cnt
}

// candidates appends vertex u's candidate targets to dst in ascending
// order and returns the extended slice (see the type comment for the
// order proof: X−1 >= 2 whenever the x-wraparound exists, so u+1 <
// u+(X−1) < u+X, and likewise per axis with strictly growing strides).
func (g *Grid) candidates(u int64, dst []int64) []int64 {
	x := u % g.x
	y := (u / g.x) % g.y
	if x < g.x-1 {
		dst = append(dst, u+1)
	}
	if g.wrap && g.x >= 3 && x == 0 {
		dst = append(dst, u+g.x-1)
	}
	if y < g.y-1 {
		dst = append(dst, u+g.x)
	}
	if g.wrap && g.y >= 3 && y == 0 {
		dst = append(dst, u+g.x*(g.y-1))
	}
	if g.dim == 3 {
		xy := g.x * g.y
		z := u / xy
		if z < g.z-1 {
			dst = append(dst, u+xy)
		}
		if g.wrap && g.z >= 3 && z == 0 {
			dst = append(dst, u+xy*(g.z-1))
		}
	}
	return dst
}

// gridWalkSpan is how far past the cursor vertex, in candidate indices,
// generateChunk still walks to the next kept candidate instead of
// searching for it: a step costs about a tenth of a search, and a vertex
// holds two or three candidates.
const gridWalkSpan = 24

// NewWorker returns the chunk generator: lattice chunks keep no
// worker-lifetime scratch.
func (g *Grid) NewWorker() stream.ShardGen { return g.generateChunk }

// generateChunk streams chunk c by walking its flattened candidate
// index space with geometric skips (er's sparse-sampling loop): the
// candidates of the chunk's vertices, concatenated in vertex order,
// form one index space of known closed-form size, and each kept index
// is mapped back to its (u, candidate) pair. p = 1 emits every
// candidate with zero draws.
func (g *Grid) generateChunk(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	lo, hi := g.runs[c][0], g.runs[c][1]
	if lo >= hi || g.p <= 0 {
		return
	}
	b := newBatcher(buf, emit)
	var cand [6]int64
	if g.p >= 1 {
		for u := lo; u < hi; u++ {
			for _, v := range g.candidates(u, cand[:0]) {
				if !b.add(u, v) {
					return
				}
			}
		}
		b.flush()
		return
	}
	total := g.candPrefix(hi) - g.candPrefix(lo)
	if total == 0 {
		return
	}
	s := rng.NewStream2(g.seed, nsGridChunk, uint64(c))
	logq := math.Log1p(-g.p)
	// t is the current kept candidate index in [0, total); advance moves
	// it by one geometric skip, reporting false when the space is
	// exhausted (the comparison form also guards int64 overflow).
	t := int64(-1)
	advance := func() bool {
		skip := s.GeometricLog(logq)
		if skip >= total-t-1 {
			return false
		}
		t += 1 + skip
		return true
	}
	if !advance() {
		return
	}
	base := g.candPrefix(lo)
	// u is the cursor vertex, cs its candidates and uBase the index of the
	// first of them, so u owns the indices [uBase, uBase+len(cs)).
	u, uBase := lo, int64(0)
	cs := g.candidates(u, cand[:0])
	for {
		// Map the kept index t back to its source vertex, the one whose
		// index range holds t. At dense p that is the cursor or a vertex
		// or two past it, so walk forward (all but the last vertex or two
		// of the lattice have a candidate, so the walk is no longer than
		// the distance); at gridWalkSpan indices or more past the cursor,
		// binary-search the closed-form prefix for the largest u with
		// candPrefix(u) − base <= t instead — the cursor never moves
		// back, so sparse p stays O(edges·log n).
		if t-uBase-int64(len(cs)) >= gridWalkSpan {
			l, h := u, hi-1
			for l < h {
				mid := l + (h-l+1)/2
				if g.candPrefix(mid)-base <= t {
					l = mid
				} else {
					h = mid - 1
				}
			}
			u, uBase = l, g.candPrefix(l)-base
			cs = g.candidates(u, cand[:0])
		}
		for t-uBase >= int64(len(cs)) {
			uBase += int64(len(cs))
			u++
			cs = g.candidates(u, cand[:0])
		}
		for t-uBase < int64(len(cs)) {
			if !b.add(u, cs[t-uBase]) {
				return
			}
			if !advance() {
				b.flush()
				return
			}
		}
	}
}
