// Package distgen reproduces the "essentially communication-free"
// distributed generation scheme the paper builds on ([3], Kepner et al.):
// the edge list of C = F₀ ⊗ … ⊗ F_{k−1} is partitioned deterministically
// across P workers, each of which generates its shard purely from the
// (small, replicated) factors — no coordination, no communication, and
// bitwise reproducible output for any P.
//
// The partition is by row blocks of L = F₀ ⊗ … ⊗ F_{k−2}, the product of
// every factor but the last (L = A for C = A ⊗ B): L's rows are cut into
// at most P contiguous sub-ranges whose cumulative L-arc counts are
// near-equal, and worker w emits every product arc whose source vertex
// projects into its row range — in canonical EachArc order. Because the
// cuts respect row boundaries, the concatenation of shards 0, 1, …, P-1
// is bytewise identical to the serial Product.EachArc stream for every
// worker count. Shard sizes are exact: |arcs_L(rows)|·|arcs(F_{k−1})|
// product arcs per shard, balanced to within one L-row's weight.
package distgen

import (
	"fmt"

	"kronvalid/internal/gio"
	"kronvalid/internal/kron"
	"kronvalid/internal/par"
	"kronvalid/internal/stream"
)

// Plan describes the deterministic partition of the product edge list.
type Plan struct {
	p         *kron.Product
	workers   int
	rowRanges [][2]int64 // per-worker [lo, hi) over L rows
	sizes     []int64    // exact product arcs per shard
	name      string     // spec the factors were parsed from; "" = digests
}

// NewPlan builds a generation plan for the given worker count (0 means
// GOMAXPROCS).
func NewPlan(p *kron.Product, workers int) *Plan {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	rows := p.LeftRows()
	arcsL := p.LeftArcOffset(rows)
	arcsB := p.Factors[len(p.Factors)-1].NumArcs()
	// Cut the L-arc index space into near-equal chunks, then round each
	// boundary up to the next row boundary so shards stay in EachArc order.
	chunks := par.Chunks(arcsL, int64(workers))
	rowAt := func(arcIdx int64) int64 {
		// Smallest row r with LeftArcOffset(r) >= arcIdx.
		lo, hi := int64(0), rows
		for lo < hi {
			mid := (lo + hi) / 2
			if p.LeftArcOffset(mid) >= arcIdx {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	var ranges [][2]int64
	var sizes []int64
	prev := int64(0)
	for i, c := range chunks {
		hi := rows
		if i < len(chunks)-1 {
			hi = rowAt(c[1])
		}
		if hi <= prev {
			continue // a heavy row swallowed this chunk's boundary
		}
		arcs := (p.LeftArcOffset(hi) - p.LeftArcOffset(prev)) * arcsB
		if arcs > 0 {
			ranges = append(ranges, [2]int64{prev, hi})
			sizes = append(sizes, arcs)
		}
		prev = hi
	}
	return &Plan{
		p:         p,
		workers:   len(ranges),
		rowRanges: ranges,
		sizes:     sizes,
	}
}

// Named sets the plan's Name() to the spec its factors were parsed
// from, kron(a=<A>;b=<B>) folded from the left for more than two, and
// returns the plan.
func (pl *Plan) Named(spec string) *Plan {
	pl.name = spec
	return pl
}

// Name returns the stable identity of the product stream, the one
// recorded in shard manifests: the spec set by Named, or else the
// factors identified by digest, which pin every byte of the canonical
// stream, so equal names imply equal streams. The digest form folds from
// the left, kron(a=kron(a=<F₀>,b=<F₁>),b=<F₂>) for three factors.
func (pl *Plan) Name() string {
	if pl.name != "" {
		return pl.name
	}
	name := gio.GraphDigest(pl.p.Factors[0])
	for _, f := range pl.p.Factors[1:] {
		name = fmt.Sprintf("kron(a=%s,b=%s)", name, gio.GraphDigest(f))
	}
	return name
}

// Shards returns the number of non-empty shards.
func (pl *Plan) Shards() int { return pl.workers }

// NumVertices returns the product's vertex count.
func (pl *Plan) NumVertices() int64 { return pl.p.NumVertices() }

// RowRange returns the half-open L-row range [lo, hi) generated by worker w.
func (pl *Plan) RowRange(w int) (lo, hi int64) {
	r := pl.rowRanges[w]
	return r[0], r[1]
}

// ShardSize returns the exact number of product arcs worker w will emit.
func (pl *Plan) ShardSize(w int) int64 { return pl.sizes[w] }

// VertexRange returns the half-open product source-vertex range owned by
// shard w — the L-row range lifted to product ids (row r owns vertices
// [r·n_last, (r+1)·n_last)).
func (pl *Plan) VertexRange(w int) (lo, hi int64) {
	nB := int64(pl.p.Factors[len(pl.p.Factors)-1].NumVertices())
	r := pl.rowRanges[w]
	return r[0] * nB, r[1] * nB
}

// TotalArcs returns the total number of product arcs across all shards.
func (pl *Plan) TotalArcs() int64 { return pl.p.NumArcs() }

// EachShardBatch streams worker w's shard in canonical order as reused
// batches (see kron.Product.EachArcBatchRange for the emit contract). Any
// worker can regenerate any shard at any time — this is the
// communication-free property.
func (pl *Plan) EachShardBatch(w int, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
	r := pl.rowRanges[w]
	pl.p.EachArcBatchRange(r[0], r[1], buf, emit)
}
