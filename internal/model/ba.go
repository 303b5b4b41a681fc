package model

import (
	"fmt"
	"slices"

	"kronvalid/internal/par"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// BarabasiAlbert is the communication-free preferential-attachment
// generator: the Batagelj–Brandes process rewritten so any worker can
// resolve any edge with no shared state — the paper's retracing
// algorithm.
//
// The sequential process writes an endpoint array E of length 2·(total
// edges): edge e occupies slots 2e (its source) and 2e+1 (its target),
// and the target is copied from a uniformly random earlier slot
// E[r], r ∈ [0, 2e+1) — choosing uniformly among all previously written
// endpoints is choosing a vertex with probability proportional to its
// current degree. The first s0-1 edges are a seed star (edge j connects
// the hub 0 with leaf j+1); every later vertex v ≥ s0 issues d edges.
//
// Sample — the draw at odd slot p is a pure per-edge hash stream:
// r(p) = Uniform[0, p) from (seed, nsBAPos, p). The "cells" of the
// Sample phase are the edge positions themselves.
//
// Enumerate — a chunk owns a contiguous vertex range and resolves each
// owned edge's target by *retracing*: start at the edge's own odd slot
// and chase r(p) until it lands on a settled slot — an even slot (whose
// vertex is known in closed form) or a seed-graph slot. The chain's
// expected length is constant (each hop is uniform over a strictly
// smaller prefix, and even slots make up half of it), so resolution is
// O(1) expected per edge with zero communication; Dependencies is nil
// because foreign reads are per-position hash evaluations, not
// whole-cell regenerations. Self loops are dropped and per-vertex
// duplicate targets merged, arcs (v, w), w < v, sorted per source, so
// the chunk stream is canonical.
//
// The chunk grouping touches no random draw — every draw is keyed by an
// edge position — so the stream is byte-identical for every chunk AND
// worker count.
type BarabasiAlbert struct {
	noDeps
	n      int64
	d      int64
	s0     int64 // seed-star vertices; s0-1 seed edges
	seed   uint64
	ranges [][2]int64 // vertex range per chunk; chunk 0 starts at 0
}

// maxBAVertices bounds n so slot arithmetic (2 · total edges) stays
// well inside int64.
const maxBAVertices = int64(1) << 40

// maxBADegree bounds the per-vertex attachment count.
const maxBADegree = int64(1) << 20

// maxBAChunkEdges bounds the number of edges a chunk owns (its arcs are
// buffered per source vertex only, but weight must stay shardable);
// denser chunks are construction errors ("raise chunks").
const maxBAChunkEdges = int64(1) << 28

// NewBarabasiAlbert returns the communication-free BA generator:
// vertices [0, s0) form a seed star (hub 0), every vertex in [s0, n)
// attaches d edges by preferential attachment. s0 = 0 means the default
// seed graph d+1 (matching the legacy constructor's star); chunks = 0
// means DefaultChunks. Like rgg, the chunk count is NOT part of the
// stream identity.
func NewBarabasiAlbert(n, d, s0 int64, seed uint64, chunks int) (*BarabasiAlbert, error) {
	if d < 1 || d > maxBADegree {
		return nil, fmt.Errorf("model: ba attachment degree %d out of [1, %d]", d, maxBADegree)
	}
	if s0 == 0 {
		s0 = d + 1
	}
	if s0 < 2 {
		return nil, fmt.Errorf("model: ba seed graph needs s0 >= 2 vertices (have %d)", s0)
	}
	if n < s0 || n > maxBAVertices {
		return nil, fmt.Errorf("model: ba vertex count %d out of [s0=%d, %d]", n, s0, maxBAVertices)
	}
	g := &BarabasiAlbert{n: n, d: d, s0: s0, seed: seed}
	attach := n - s0
	k := int64(normalizeChunks(chunks, maxInt64(attach, 1)))
	if attach > 0 && (attach/k+1)*d > maxBAChunkEdges {
		return nil, fmt.Errorf("model: ba assigns ~%d edges to each of %d chunks (per-chunk cap %d); raise chunks",
			(attach/k+1)*d, k, maxBAChunkEdges)
	}
	runs := par.Chunks(attach, k)
	if len(runs) == 0 {
		runs = [][2]int64{{0, 0}}
	}
	for i, run := range runs {
		lo, hi := s0+run[0], s0+run[1]
		if i == 0 {
			lo = 0 // chunk 0 also owns the seed star's sources
		}
		g.ranges = append(g.ranges, [2]int64{lo, hi})
	}
	g.ranges[len(g.ranges)-1][1] = n
	return g, nil
}

func buildBA(p *Params, seed uint64, chunks int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	// The attachment degree is "d" (the paper's notation); "m" (the key
	// the Go function BarabasiAlbert(n, m, seed) names it by) is an
	// accepted alias.
	_, hasD := p.String("d")
	_, hasM := p.String("m")
	if !hasD && !hasM {
		return nil, fmt.Errorf("missing required parameter \"d\" (attachment degree; alias \"m\")")
	}
	d, err := p.Int64("d", 0)
	if err != nil {
		return nil, err
	}
	m, err := p.Int64("m", 0)
	if err != nil {
		return nil, err
	}
	switch {
	case !hasD:
		d = m
	case hasM && m != d:
		return nil, fmt.Errorf("parameters \"d\" and \"m\" are aliases and disagree (%d vs %d)", d, m)
	}
	s0, err := p.Int64("s0", 0)
	if err != nil {
		return nil, err
	}
	return NewBarabasiAlbert(n, d, s0, seed, chunks)
}

func init() { Register("ba", buildBA) }

// Name returns the canonical spec of this generator.
func (g *BarabasiAlbert) Name() string {
	return fmt.Sprintf("ba:n=%d,d=%d,s0=%d,seed=%d,chunks=%d", g.n, g.d, g.s0, g.seed, len(g.ranges))
}

// NumVertices returns n.
func (g *BarabasiAlbert) NumVertices() int64 { return g.n }

// NumArcs returns -1: dropped self loops and merged duplicates make the
// realized count random (it is at most s0-1 + (n-s0)·d).
func (g *BarabasiAlbert) NumArcs() int64 { return -1 }

// Chunks returns the fixed chunk count.
func (g *BarabasiAlbert) Chunks() int { return len(g.ranges) }

// ChunkRange returns chunk c's source-vertex range.
func (g *BarabasiAlbert) ChunkRange(c int) (lo, hi int64) {
	r := g.ranges[c]
	return r[0], r[1]
}

// ChunkWeight returns chunk c's owned edge count (each resolved in O(1)
// expected retracing steps), plus one.
func (g *BarabasiAlbert) ChunkWeight(c int) int64 {
	r := g.ranges[c]
	lo := maxInt64(r[0], g.s0)
	w := int64(1)
	if r[1] > lo {
		w += (r[1] - lo) * g.d
	}
	if r[0] == 0 {
		w += g.s0 - 1
	}
	return w
}

// ChunkArcs returns -1: dedup makes per-chunk counts random.
func (g *BarabasiAlbert) ChunkArcs(c int) int64 { return -1 }

// seedEdges returns the number of seed-star edges.
func (g *BarabasiAlbert) seedEdges() int64 { return g.s0 - 1 }

// posDraw returns the per-position hash draw of odd slot p: a uniform
// index in [0, p), a pure function of (seed, p) — the Sample phase.
func (g *BarabasiAlbert) posDraw(p int64) int64 {
	return rng.NewStream2(g.seed, nsBAPos, uint64(p)).Int64n(p)
}

// baMemoWindow is the settled-slot memo's coverage: odd endpoint slots
// below the window are memoized in a direct-indexed array (4 MiB per
// worker at the cap). Retracing draws are uniform over strictly smaller
// prefixes, so chain visits concentrate on the low end of the slot
// space — exactly the region the fixed window covers — while high slots
// are rarely revisited and stay cheap to re-chase.
const baMemoWindow = int64(1) << 20

// maxBAChainRecord bounds how many intermediate slots of one chain are
// backfilled into the memo; chains are O(1) expected, so the bound only
// exists to keep the stack record fixed-size.
const maxBAChainRecord = 64

// baState is the per-worker scratch of the retracing Enumerate phase:
// the per-vertex target buffer and the settled-slot memo — memo[k]
// resolves odd slot 2k+1, -1 unset — so chains crossing slots already
// resolved by earlier chunks of the same worker terminate immediately.
// Resolution is pure, so memo hits return exactly the value a fresh
// chase would: state can never move a byte.
type baState struct {
	targets []int64
	memo    []int64
}

// NewWorker returns the chunk generator bound to fresh retracing
// scratch for one worker.
func (g *BarabasiAlbert) NewWorker() stream.ShardGen {
	win := baMemoWindow
	if tot := 2 * (g.seedEdges() + (g.n-g.s0)*g.d); tot < win {
		win = tot // never allocate past the slot space
	}
	memo := make([]int64, win/2)
	for i := range memo {
		memo[i] = -1
	}
	st := &baState{targets: make([]int64, 0, g.d), memo: memo}
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateChunk(st, c, buf, emit)
	}
}

// resolveWith retraces the dependency chain of endpoint slot p until it
// lands on a settled slot and returns that slot's vertex: seed-star
// slots and even slots are known in closed form; odd slots chase their
// per-position hash draw, shortcutting through the worker's memo.
// Matches the sequential process exactly
// (TestBARetracingMatchesSequentialProcess).
func (g *BarabasiAlbert) resolveWith(st *baState, p int64) int64 {
	se := g.seedEdges()
	var chain [maxBAChainRecord]int64
	hops := 0
	var v int64
	for {
		if p < 2*se {
			// Seed star: edge j = p/2 connects hub 0 and leaf j+1.
			if p%2 == 0 {
				v = 0
			} else {
				v = p/2 + 1
			}
			break
		}
		if p%2 == 0 {
			// Source slot of edge e: the issuing vertex.
			v = g.s0 + (p/2-se)/g.d
			break
		}
		// p odd: memo index p>>1 = (p-1)/2 is unique among odd slots.
		if k := p >> 1; k < int64(len(st.memo)) {
			if w := st.memo[k]; w >= 0 {
				v = w
				break
			}
			if hops < len(chain) {
				chain[hops] = k
				hops++
			}
		}
		// posDraw(p), deriving only the state word the draw reads.
		p = rng.Stream2Int64n(g.seed, nsBAPos, uint64(p), p)
	}
	// Backfill: every in-window odd slot visited resolved to v too.
	for i := 0; i < hops; i++ {
		st.memo[chain[i]] = v
	}
	return v
}

// generateChunk streams chunk c: the seed star (if owned), then
// each owned vertex's d retraced attachments — self loops dropped,
// per-vertex duplicates merged, targets sorted — as canonical (v, w)
// arcs, w < v (every retraced chain settles on an earlier vertex).
func (g *BarabasiAlbert) generateChunk(st *baState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	r := g.ranges[c]
	b := newBatcher(buf, emit)
	if r[0] == 0 {
		for j := int64(1); j < g.s0; j++ {
			if !b.add(0, j) {
				return
			}
		}
	}
	se := g.seedEdges()
	for v := maxInt64(r[0], g.s0); v < r[1]; v++ {
		e0 := se + (v-g.s0)*g.d
		targets := st.targets[:0]
		for i := int64(0); i < g.d; i++ {
			w := g.resolveWith(st, 2*(e0+i)+1)
			if w != v {
				targets = append(targets, w)
			}
		}
		slices.Sort(targets)
		var prev int64 = -1
		for _, w := range targets {
			if w == prev {
				continue
			}
			prev = w
			if !b.add(v, w) {
				return
			}
		}
	}
	b.flush()
}
