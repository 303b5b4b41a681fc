// Package model is the model-agnostic communication-free generator
// layer: every random graph model is expressed as a two-phase plan over
// a fixed sequence of randomness units that any worker can regenerate
// from the seed and a structural id alone via rng.NewStream2.
//
// Phase 1 — Sample. The model's raw random draws (coordinates, degree
// draws, edge-count splits, pair indices) are partitioned into *cells*,
// and each cell's sample is a pure function of (seed, cell id): any
// worker can recompute any cell's sample on demand, at any time, with
// no communication. For the dependence-free models (er, gnm, rmat,
// chunglu) cells coincide with chunks; for the spatial models (rgg2d,
// rgg3d) a cell is one grid cell's vertex placements; for ba the
// "cells" degenerate to per-edge-position hash streams.
//
// Phase 2 — Enumerate. Arc emission is partitioned into *chunks*, each
// owning a contiguous, disjoint source-vertex range and emitting its
// arcs in strictly increasing lexicographic order. A chunk may read
// sample cells it does not own — it declares them via Dependencies and
// simply *recomputes* them (the paper's trick for random geometric
// graphs: each worker regenerates neighboring cells' vertex samples
// instead of receiving them) or chases per-edge dependency chains
// through the Sample phase's hash streams (the paper's retracing
// algorithm for preferential attachment). Every arc is emitted by
// exactly one owning chunk, ties broken canonically (undirected pairs
// belong to the lexicographically smaller endpoint's owner).
//
// Shards are contiguous chunk ranges, so the concatenated shard streams
// are the concatenated chunk streams — byte-identical for every worker
// count — and the per-chunk source ranges are exactly the contract the
// parallel CSR builder and the per-shard writers already rely on for
// the Kronecker pipeline.
//
// The cell, not the shard — and not even the chunk grouping — is the
// unit of randomness: worker counts partition chunks, chunks group
// cells, and neither ever influences a single random draw. Changing a
// model parameter that is part of the stream identity (for er/gnm/
// rmat/chunglu that includes the chunk count; for rgg/ba it does not —
// their cells are fixed by the geometry or the edge positions) changes
// the stream; changing the worker count never does.
//
// Models register themselves in a registry keyed by a spec string
// (`er:n=100000,p=0.001,seed=42`), so CLIs and the public API construct
// generators model-agnostically. The registry is the only place a model
// kind's parameters are read: the factor surface (internal/spec) hands
// every kind it does not own to FromParams.
package model

import (
	"sort"

	"kronvalid/internal/par"
	"kronvalid/internal/stream"
)

// Stream-id namespaces: every independent randomness consumer in this
// package derives its generators under its own namespace via
// rng.NewStream2(seed, namespace, id), so no two models — and no model's
// chunk streams versus its splitting-tree streams — can ever collide,
// and adding a model never perturbs another model's bytes.
const (
	nsERChunk   = 0x6572_0001 // Erdős–Rényi G(n,p) chunk streams
	nsGnmChunk  = 0x676e_6d01 // G(n,m) chunk streams
	nsGnmSplit  = 0x676e_6d02 // G(n,m) binomial-splitting tree
	nsRMATChunk = 0x726d_6101 // R-MAT chunk streams
	nsRMATSplit = 0x726d_6102 // R-MAT multinomial-splitting tree
	nsCLBlock   = 0x636c_7502 // Chung–Lu blockwise chunk streams (0x636c_7501 is the test oracle's)
	nsRGGCell   = 0x7267_6701 // RGG per-cell coordinate streams
	nsRGGSplit  = 0x7267_6702 // RGG cell-occupancy splitting tree
	nsBAPos     = 0x6261_0001 // BA per-edge-position hash streams
	nsRHGCell   = 0x7268_6701 // RHG per-cell coordinate streams
	nsRHGSplit  = 0x7268_6702 // RHG cell-occupancy splitting tree
	nsGridChunk = 0x6772_6401 // grid lattice chunk streams
)

// DefaultChunks is the number of randomness chunks a model uses when the
// spec does not override it. It bounds useful parallelism (shards ≤
// chunks) and is part of the stream identity, so it is a fixed constant
// rather than a function of the machine.
const DefaultChunks = 64

// Generator is a random graph model expressed as a communication-free
// sharded arc stream in the two-phase Sample/Enumerate shape (see the
// package comment). Chunks are indexed 0..Chunks()-1; concatenating
// every chunk's arcs in index order is the model's canonical stream.
// Implementations guarantee:
//
//   - Sample: every random draw a chunk consumes comes from a stream
//     keyed only by (seed, structural id) — a cell id, a splitting-tree
//     node, or an edge position — never by chunk or shard boundaries;
//   - Enumerate: generating chunk c is a pure function of the
//     generator's parameters and c — any worker can regenerate any chunk
//     at any time, recomputing foreign cells (Dependencies) as needed;
//   - chunk c emits only arcs whose source vertex lies in ChunkRange(c),
//     in strictly increasing lexicographic (U, V) order, and every arc
//     of the model is emitted by exactly one chunk (undirected pairs by
//     the lexicographically smaller endpoint's owner);
//   - chunk ranges are non-overlapping and non-decreasing in c,
//
// which together make the canonical stream feed the one-pass CSR sink
// directly and make the two-pass parallel CSR builder race-free.
type Generator interface {
	// Name returns the canonical spec string of the generator; feeding it
	// back through New reproduces the identical stream.
	Name() string
	// NumVertices returns the size of the vertex-id space [0, n).
	NumVertices() int64
	// NumArcs returns the exact total arc count when the model fixes it
	// (G(n, m)), and -1 when it is only known in expectation.
	NumArcs() int64
	// Chunks returns the fixed number of enumeration chunks.
	Chunks() int
	// ChunkRange returns the half-open source-vertex range owned by
	// chunk c. Ranges are disjoint and non-decreasing in c; an empty
	// chunk has lo == hi.
	ChunkRange(c int) (lo, hi int64)
	// ChunkWeight returns the relative expected work of chunk c —
	// including the cost of regenerating its dependency cells — the
	// quantity shard balancing equalizes.
	ChunkWeight(c int) int64
	// ChunkArcs returns the exact arc count of chunk c, or -1 when it is
	// random.
	ChunkArcs(c int) int64
	// Dependencies returns the ids of the Sample-phase cells chunk c
	// recomputes beyond the ones it owns — the declared cross-chunk
	// reads of the Enumerate phase, sorted ascending. Dependence-free
	// models return nil; models whose cross-chunk reads are resolved
	// pointwise through per-element hash streams rather than whole-cell
	// regeneration (BA retracing) also return nil.
	Dependencies(c int) []int64
	// NewWorker returns the chunk-generation function for one worker
	// goroutine: called with a chunk index c, it streams chunk c under
	// the stream.ShardGen emit contract — fill buf, hand every full
	// batch and the final partial one to emit, stop early when emit
	// returns nil. The function may close over worker-lifetime scratch
	// (dependency-cell samples, memo tables, hit buffers) that it reuses
	// across the chunks it is called for, so it must only be used by one
	// goroutine at a time; NewWorker itself is safe for concurrent
	// calls. Scratch is the *cost* side of generation only — the Sample
	// phase is pure, so regenerating a cell and reading it back from a
	// cache yield identical values, and a fresh worker per chunk emits
	// the same bytes as one worker across all of them. Kinds without
	// such scratch return their chunk method directly.
	NewWorker() stream.ShardGen
}

// noDeps is embedded by models whose chunks read no foreign sample
// cells: their Enumerate phase touches only streams the chunk itself
// owns, so the dependency declaration is empty.
type noDeps struct{}

// Dependencies reports that the chunk recomputes no foreign cells.
func (noDeps) Dependencies(int) []int64 { return nil }

// batcher adapts the append-and-flush emit contract for generator inner
// loops: add appends one arc and hands the batch off when full; flush
// emits the final partial batch. After add or flush returns false the
// consumer has stopped and the generator must return.
type batcher struct {
	buf     []stream.Arc
	emit    func([]stream.Arc) []stream.Arc
	stopped bool
}

func newBatcher(buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) *batcher {
	if cap(buf) == 0 {
		buf = make([]stream.Arc, 0, stream.DefaultBatchSize)
	}
	return &batcher{buf: buf[:0], emit: emit}
}

func (b *batcher) add(u, v int64) bool {
	b.buf = append(b.buf, stream.Arc{U: u, V: v})
	if len(b.buf) == cap(b.buf) {
		b.buf = b.emit(b.buf)
		if b.buf == nil {
			b.stopped = true
			return false
		}
		b.buf = b.buf[:0]
	}
	return true
}

// addRun appends arcs (u, base+hits[0]), (u, base+hits[1]), … — the
// batched form of one add call per hit. The hit indices come from a
// kernel's scratch buffer and must be ascending; emission order and
// bytes are identical to the per-arc loop it replaces, only the
// per-arc closure dispatch is gone.
func (b *batcher) addRun(u, base int64, hits []int32) bool {
	for len(hits) > 0 {
		room := cap(b.buf) - len(b.buf)
		n := len(hits)
		if n > room {
			n = room
		}
		for _, h := range hits[:n] {
			b.buf = append(b.buf, stream.Arc{U: u, V: base + int64(h)})
		}
		hits = hits[n:]
		if len(b.buf) == cap(b.buf) {
			b.buf = b.emit(b.buf)
			if b.buf == nil {
				b.stopped = true
				return false
			}
			b.buf = b.buf[:0]
		}
	}
	return true
}

// addIdx is addRun with indirect targets: it appends (u, vids[hits[0]]),
// (u, vids[hits[1]]), … — the emission shape of kernels that scan a
// flattened multi-cell segment whose global ids live in a parallel
// array. Identical per-arc emission order to the add loop it batches.
func (b *batcher) addIdx(u int64, vids []int64, hits []int32) bool {
	for len(hits) > 0 {
		room := cap(b.buf) - len(b.buf)
		n := len(hits)
		if n > room {
			n = room
		}
		for _, h := range hits[:n] {
			b.buf = append(b.buf, stream.Arc{U: u, V: vids[h]})
		}
		hits = hits[n:]
		if len(b.buf) == cap(b.buf) {
			b.buf = b.emit(b.buf)
			if b.buf == nil {
				b.stopped = true
				return false
			}
			b.buf = b.buf[:0]
		}
	}
	return true
}

func (b *batcher) flush() {
	if !b.stopped && len(b.buf) > 0 {
		if b.emit(b.buf) == nil {
			b.stopped = true
		}
		b.buf = nil
	}
}

// pairSpace indexes the upper triangle of an n-vertex graph: pair
// (u, v), u < v, has index offset(u) + (v-u-1), and indices enumerate
// pairs in canonical lexicographic order. It is the address space the
// pair-backed models (ER, G(n,m)) shard over.
type pairSpace struct {
	n     int64
	total int64
}

func newPairSpace(n int64) pairSpace {
	ps := pairSpace{n: n}
	if n > 0 {
		// offset(n-1) = (n-1)·n/2 = the full pair count, computed through
		// the overflow-safe path (the naive n·(n-1) intermediate wraps
		// near the n = 2^32 cap).
		ps.total = ps.offset(n - 1)
	}
	return ps
}

// offset returns the index of pair (u, u+1), i.e. the number of pairs
// in rows before u: u·(2n-u-1)/2. The factors are multiplied with the
// even one pre-halved — the naive u·n intermediate overflows int64 near
// the n = 2^32 cap even though the result always fits.
func (ps pairSpace) offset(u int64) int64 {
	b := 2*ps.n - u - 1
	if u%2 == 0 {
		return (u / 2) * b
	}
	return u * (b / 2)
}

// rowAt returns the smallest row r with offset(r) >= idx — the row
// boundary used to round chunk cuts so chunks own whole rows.
func (ps pairSpace) rowAt(idx int64) int64 {
	lo, hi := int64(0), ps.n
	for lo < hi {
		mid := (lo + hi) / 2
		if ps.offset(mid) >= idx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// unpack converts a pair index within row u to the pair (u, v).
func (ps pairSpace) unpack(u, idx int64) (int64, int64) {
	return u, u + 1 + (idx - ps.offset(u))
}

// rowWalker maps ascending pair indices to (u, v) pairs, advancing its
// row cursor incrementally — the shared inner stepping of the
// pair-backed model generators.
type rowWalker struct {
	ps     pairSpace
	u      int64
	rowEnd int64
}

// walkerAt returns a walker positioned at the start of the given row.
func (ps pairSpace) walkerAt(row int64) rowWalker {
	return rowWalker{ps: ps, u: row, rowEnd: ps.offset(row + 1)}
}

// step returns the pair at index t. Successive calls must pass
// non-decreasing t at or past the walker's starting row.
func (w *rowWalker) step(t int64) (u, v int64) {
	for t >= w.rowEnd {
		w.u++
		w.rowEnd = w.ps.offset(w.u + 1)
	}
	return w.ps.unpack(w.u, t)
}

// chunkRows cuts the pair space into exactly `chunks` row-aligned slots
// with near-equal pair counts. Slots may be empty (lo == hi) when a
// heavy row swallows a boundary; empty slots are kept so chunk indices —
// and therefore per-chunk rng streams — are a pure function of
// (n, chunks), never of balancing.
func (ps pairSpace) chunkRows(chunks int) [][2]int64 {
	nRows := ps.n - 1 // rows 0..n-2 contain pairs
	if nRows < 0 {
		nRows = 0
	}
	chunks = normalizeChunks(chunks, nRows)
	cuts := par.Chunks(ps.total, int64(chunks))
	rows := make([][2]int64, 0, chunks)
	prev := int64(0)
	for i := 0; i < chunks; i++ {
		hi := nRows
		if i < len(cuts)-1 {
			hi = ps.rowAt(cuts[i][1])
		}
		if i >= len(cuts) || hi < prev {
			hi = prev
		}
		rows = append(rows, [2]int64{prev, hi})
		prev = hi
	}
	if len(rows) > 0 {
		rows[len(rows)-1][1] = nRows
	}
	return rows
}

// maxChunkCount caps the chunk count regardless of the spec: chunk
// tables are materialized per generator, and parallelism far beyond
// core counts buys nothing.
const maxChunkCount = 1 << 20

// normalizeChunks clamps a requested chunk count into [1, maxChunks]
// (0 means DefaultChunks).
func normalizeChunks(chunks int, maxChunks int64) int {
	if chunks <= 0 {
		chunks = DefaultChunks
	}
	if chunks > maxChunkCount {
		chunks = maxChunkCount
	}
	if int64(chunks) > maxChunks {
		chunks = int(maxChunks)
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// weightedRuns cuts items [0, n) into at most `parts` contiguous runs
// of near-equal cumulative weight: each run takes items until the
// running total crosses its proportional target, and the final run
// takes the rest. Weights accumulate in float64, so int64-scale totals
// (e.g. pair counts near 2^63) never overflow the target arithmetic.
// keepEmpty retains zero-width runs, for callers whose run index is
// part of the stream identity; otherwise empty runs are dropped.
func weightedRuns(n, parts int, weight func(int) float64, keepEmpty bool) [][2]int {
	if parts <= 0 {
		parts = 1
	}
	if !keepEmpty && parts > n {
		parts = n
	}
	var total float64
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	runs := make([][2]int, 0, parts)
	prev := 0
	cursor := 0.0
	for s := 0; s < parts; s++ {
		target := total * float64(s+1) / float64(parts)
		hi := prev
		for hi < n && (s == parts-1 || cursor < target) {
			cursor += weight(hi)
			hi++
		}
		if hi > prev || keepEmpty {
			runs = append(runs, [2]int{prev, hi})
		}
		prev = hi
	}
	if len(runs) == 0 {
		runs = append(runs, [2]int{0, n})
	}
	return runs
}

// prefixRuns is weightedRuns over a precomputed prefix-sum array, where
// prefix[i] is the cumulative weight of items [0, i). The generic loop
// ends part s at the first index whose running total reaches
// total·(s+1)/parts, and the running total at index i is exactly
// prefix[i], so each boundary is an upper-bound binary search — the
// same cuts, bit for bit, in O(parts·log n) instead of a second O(n)
// accumulation pass.
func prefixRuns(prefix []float64, parts int, keepEmpty bool) [][2]int {
	n := len(prefix) - 1
	if parts <= 0 {
		parts = 1
	}
	if !keepEmpty && parts > n {
		parts = n
	}
	total := prefix[n]
	runs := make([][2]int, 0, parts)
	prev := 0
	for s := 0; s < parts; s++ {
		hi := n
		if s < parts-1 {
			target := total * float64(s+1) / float64(parts)
			hi = prev + sort.SearchFloat64s(prefix[prev:], target)
			if hi > n {
				hi = n
			}
		}
		if hi > prev || keepEmpty {
			runs = append(runs, [2]int{prev, hi})
		}
		prev = hi
	}
	if len(runs) == 0 {
		runs = append(runs, [2]int{0, n})
	}
	return runs
}

// Collect regenerates the model's full canonical stream serially and
// returns it as one arc slice, unbounded: the reference the tests
// compare the drivers against. Building a graph from outside input goes
// through gen.FromModel, which caps the size.
func Collect(g Generator) []stream.Arc {
	var out []stream.Arc
	if n := g.NumArcs(); n > 0 {
		out = make([]stream.Arc, 0, n)
	}
	buf := make([]stream.Arc, 0, stream.DefaultBatchSize)
	gen := g.NewWorker() // one worker across every chunk
	for c := 0; c < g.Chunks(); c++ {
		gen(c, buf, func(full []stream.Arc) []stream.Arc {
			out = append(out, full...)
			return full[:0]
		})
	}
	return out
}
