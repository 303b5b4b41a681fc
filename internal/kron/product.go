// Package kron is the core of the library: the implicit Kronecker product
// graph C = A ⊗ B and the paper's formulas that read exact statistics of C
// off cheap computations on the factors A and B.
//
// C is never materialized (except for validation-scale factors): its
// |E_A|·|E_B| edges are streamed, queried, or sampled from the two small
// factors. Product vertices are int64: p = i·n_B + k composes factor
// vertices i ∈ A and k ∈ B (0-based throughout; the paper is 1-based).
package kron

import (
	"errors"
	"fmt"
	"sync"

	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
	"kronvalid/internal/stream"
)

// ErrTooLarge is returned when a materialization request exceeds the
// caller's limit.
var ErrTooLarge = errors.New("kron: product too large to materialize")

// Product is the implicit Kronecker product graph C = A ⊗ B.
//
// Its factor statistics are computed once per factor, on first use, and
// read by every closed form. That memo cannot go stale: graph.Graph has no
// mutating method, and A and B must not be reassigned after NewProduct.
type Product struct {
	A, B   *graph.Graph
	nB     int64
	sa, sb *factorMemo
}

// factorMemo computes one factor's statistics on first use. It is per
// factor, not per product, because a formula may need only one side
// (DirectedCensus reads B's while A is directed and has none).
type factorMemo struct {
	g     *graph.Graph
	once  sync.Once
	stats *FactorTriangleStats
}

// newFactorMemos returns one memo per factor; factors that are the same
// *graph.Graph (A ⊗ A, Kronecker powers) share one.
func newFactorMemos(factors ...*graph.Graph) []*factorMemo {
	byGraph := map[*graph.Graph]*factorMemo{}
	memos := make([]*factorMemo, len(factors))
	for i, f := range factors {
		if byGraph[f] == nil {
			byGraph[f] = &factorMemo{g: f}
		}
		memos[i] = byGraph[f]
	}
	return memos
}

// get returns the factor's statistics. The factor must be undirected.
func (m *factorMemo) get() *FactorTriangleStats {
	m.once.Do(func() { m.stats = ComputeFactorStats(m.g) })
	return m.stats
}

// NewProduct validates the factors (sizes must multiply within int64) and
// returns the implicit product.
func NewProduct(a, b *graph.Graph) (*Product, error) {
	if a.NumVertices() == 0 || b.NumVertices() == 0 {
		return nil, errors.New("kron: empty factor")
	}
	if _, err := sparse.CheckedMul(int64(a.NumVertices()), int64(b.NumVertices())); err != nil {
		return nil, fmt.Errorf("kron: vertex count overflow: %w", err)
	}
	if _, err := sparse.CheckedMul(a.NumArcs(), b.NumArcs()); err != nil {
		return nil, fmt.Errorf("kron: arc count overflow: %w", err)
	}
	memos := newFactorMemos(a, b)
	return &Product{A: a, B: b, nB: int64(b.NumVertices()), sa: memos[0], sb: memos[1]}, nil
}

// FactorStats returns the statistics of A and of B that every closed form
// of p reads, computing each on its first use. Both factors must be
// undirected.
func (p *Product) FactorStats() (sa, sb *FactorTriangleStats, err error) {
	if err := requireUndirected(p); err != nil {
		return nil, nil, err
	}
	return p.sa.get(), p.sb.get(), nil
}

// MustProduct is NewProduct that panics on error, for tests and examples
// with known-good factors.
func MustProduct(a, b *graph.Graph) *Product {
	p, err := NewProduct(a, b)
	if err != nil {
		panic(err)
	}
	return p
}

// Vertex composes factor vertices (i ∈ A, k ∈ B) into the product vertex
// p = i·n_B + k.
func (p *Product) Vertex(i, k int32) int64 {
	return int64(i)*p.nB + int64(k)
}

// Factors splits product vertex v into its factor vertices (i, k).
func (p *Product) Factors(v int64) (i, k int32) {
	return int32(v / p.nB), int32(v % p.nB)
}

// NumVertices returns n_C = n_A · n_B.
func (p *Product) NumVertices() int64 {
	return int64(p.A.NumVertices()) * p.nB
}

// NumArcs returns the number of directed arcs of C: |arcs(A)|·|arcs(B)|.
func (p *Product) NumArcs() int64 {
	return p.A.NumArcs() * p.B.NumArcs()
}

// NumLoops returns the number of self loops of C: loops(A)·loops(B).
func (p *Product) NumLoops() int64 {
	return p.A.NumLoops() * p.B.NumLoops()
}

// NumEdgesUndirected returns the number of undirected edges of C
// (pairs counted once, self loops once). Panics unless both factors are
// symmetric (which makes C symmetric).
func (p *Product) NumEdgesUndirected() int64 {
	if !p.IsSymmetric() {
		panic("kron: NumEdgesUndirected on a non-symmetric product")
	}
	loops := p.NumLoops()
	return (p.NumArcs()-loops)/2 + loops
}

// IsSymmetric reports whether C is symmetric. A ⊗ B is symmetric when
// both factors are (the standard sufficient condition, and the only case
// the paper's undirected results address).
func (p *Product) IsSymmetric() bool {
	return p.A.IsSymmetric() && p.B.IsSymmetric()
}

// HasEdge reports whether arc (u, v) exists in C:
// C[p(i,k)][q(j,l)] = A[i][j]·B[k][l].
func (p *Product) HasEdge(u, v int64) bool {
	i, k := p.Factors(u)
	j, l := p.Factors(v)
	return p.A.HasEdge(i, j) && p.B.HasEdge(k, l)
}

// HasLoop reports whether product vertex v has a self loop.
func (p *Product) HasLoop(v int64) bool {
	i, k := p.Factors(v)
	return p.A.LoopAt(i) && p.B.LoopAt(k)
}

// OutDegreeRaw returns the raw out-degree of product vertex v including a
// self loop: rowsum_A(i)·rowsum_B(k).
func (p *Product) OutDegreeRaw(v int64) int64 {
	i, k := p.Factors(v)
	return p.A.OutDegreeRaw(i) * p.B.OutDegreeRaw(k)
}

// Degree returns the paper's degree of product vertex v (excluding its
// self loop): d_C(p) = (d_A(i)+s_A(i))·(d_B(k)+s_B(k)) - s_A(i)·s_B(k),
// where s is the self-loop indicator. This single expression covers all
// three self-loop regimes of §III.A.
func (p *Product) Degree(v int64) int64 {
	d := p.OutDegreeRaw(v)
	if p.HasLoop(v) {
		d--
	}
	return d
}

// EachNeighbor calls fn for every out-neighbor of product vertex v, in
// increasing product-vertex order, stopping early if fn returns false.
func (p *Product) EachNeighbor(v int64, fn func(u int64) bool) {
	i, k := p.Factors(v)
	for _, j := range p.A.Neighbors(i) {
		base := int64(j) * p.nB
		for _, l := range p.B.Neighbors(k) {
			if !fn(base + int64(l)) {
				return
			}
		}
	}
}

// Neighbors returns the out-neighbors of v as a slice (degree-sized
// allocation; use EachNeighbor to stream).
func (p *Product) Neighbors(v int64) []int64 {
	out := make([]int64, 0, p.OutDegreeRaw(v))
	p.EachNeighbor(v, func(u int64) bool {
		out = append(out, u)
		return true
	})
	return out
}

// EachArcBatchRange streams the product arcs whose A-side source row lies
// in [loA, hiA), in canonical EachArc order, delivered as batches: the
// generator appends into buf and hands every full batch — plus the final
// partial one — to emit. emit takes ownership of the slice it receives and
// returns the next buffer to fill (len 0, its cap sets the batch size), or
// nil to stop early. This is the hot path of the generation pipeline: the
// inner loops write straight into a flat buffer with no per-arc callback.
func (p *Product) EachArcBatchRange(loA, hiA int32, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
	if cap(buf) == 0 {
		buf = make([]stream.Arc, 0, stream.DefaultBatchSize)
	}
	buf = buf[:0]
	limit := cap(buf)
	for i := loA; i < hiA; i++ {
		nbA := p.A.Neighbors(i)
		if len(nbA) == 0 {
			continue
		}
		for k := int64(0); k < p.nB; k++ {
			u := int64(i)*p.nB + k
			nbB := p.B.Neighbors(int32(k))
			if len(nbB) == 0 {
				continue
			}
			for _, j := range nbA {
				base := int64(j) * p.nB
				for _, l := range nbB {
					buf = append(buf, stream.Arc{U: u, V: base + int64(l)})
					if len(buf) == limit {
						if buf = emit(buf); buf == nil {
							return
						}
						buf = buf[:0]
						limit = cap(buf)
					}
				}
			}
		}
	}
	if len(buf) > 0 {
		emit(buf)
	}
}

// EachArcBatch streams every arc of C as batches of at most batchSize arcs
// (0 means stream.DefaultBatchSize), in EachArc order. The batch slice is
// reused between calls: fn must not retain it. Stops early if fn returns
// false.
func (p *Product) EachArcBatch(batchSize int, fn func(batch []stream.Arc) bool) {
	if batchSize <= 0 {
		batchSize = stream.DefaultBatchSize
	}
	buf := make([]stream.Arc, 0, batchSize)
	p.EachArcBatchRange(0, int32(p.A.NumVertices()), buf, func(full []stream.Arc) []stream.Arc {
		if !fn(full) {
			return nil
		}
		return full[:0]
	})
}

// EachArc streams every arc (u, v) of C in lexicographic order: the full
// |arcs(A)|·|arcs(B)| edge list of the product, generated from the factors
// without materializing anything. Stops early if fn returns false.
//
// This is a compatibility adapter over the batched generator; code that
// cares about throughput should consume EachArcBatch directly.
func (p *Product) EachArc(fn func(u, v int64) bool) {
	p.EachArcBatch(0, func(batch []stream.Arc) bool {
		for _, a := range batch {
			if !fn(a.U, a.V) {
				return false
			}
		}
		return true
	})
}

// Materialize builds the explicit product graph, refusing if the product
// has more than maxVertices vertices or maxArcs arcs. Use only at
// validation scale.
//
// The adjacency is assembled CSR-directly: row offsets come from the
// closed-form degree product rawdeg(i,k) = rawdeg_A(i)·rawdeg_B(k), and
// the batched stream — already in canonical sorted order and
// duplicate-free — fills the flat neighbor array sequentially. No edge
// list, no sort, no dedup.
func (p *Product) Materialize(maxVertices, maxArcs int64) (*graph.Graph, error) {
	if p.NumVertices() > maxVertices || p.NumArcs() > maxArcs {
		return nil, fmt.Errorf("%w: %d vertices, %d arcs", ErrTooLarge, p.NumVertices(), p.NumArcs())
	}
	if p.NumVertices() > (1<<31 - 1) {
		return nil, fmt.Errorf("%w: %d vertices exceed explicit-graph limit", ErrTooLarge, p.NumVertices())
	}
	nA := p.A.NumVertices()
	offsets := make([]int64, p.NumVertices()+1)
	for i := 0; i < nA; i++ {
		ra := p.A.OutDegreeRaw(int32(i))
		base := int64(i) * p.nB
		for k := int64(0); k < p.nB; k++ {
			offsets[base+k+1] = offsets[base+k] + ra*p.B.OutDegreeRaw(int32(k))
		}
	}
	nbrs := make([]int32, p.NumArcs())
	idx := 0
	p.EachArcBatch(0, func(batch []stream.Arc) bool {
		for _, a := range batch {
			nbrs[idx] = int32(a.V)
			idx++
		}
		return true
	})
	c := graph.FromCSR(offsets, nbrs)
	if p.A.IsLabeled() {
		labels := make([]int32, p.NumVertices())
		for v := range labels {
			i, _ := p.Factors(int64(v))
			labels[v] = p.A.Label(i)
		}
		c = c.WithLabels(labels, p.A.NumLabels())
	}
	return c, nil
}

// Label returns the inherited label of product vertex v when the left
// factor is labeled: f_C(p) = f_A(i(p)) (§V).
func (p *Product) Label(v int64) int32 {
	i, _ := p.Factors(v)
	return p.A.Label(i)
}

// DegreeVector materializes the full degree vector of C (n_C entries);
// only for validation-scale products.
func (p *Product) DegreeVector() []int64 {
	out := make([]int64, p.NumVertices())
	for v := range out {
		out[v] = p.Degree(int64(v))
	}
	return out
}

// MaxDegree returns the maximum degree of C along with a vertex achieving
// it, computed from the factors in O(n_A + n_B): the maximum of the
// degree formula factorizes over (i, k) pairs restricted to the four
// loop/no-loop combinations.
func (p *Product) MaxDegree() (int64, int64) {
	// Evaluate the formula for the best i per loop-class of A crossed
	// with the best k per loop-class of B. Because
	// d = (dA+sA)(dB+sB) - sA·sB is monotone in dA and dB for fixed
	// (sA, sB), it suffices to track the max degree within each class.
	type best struct {
		d  int64
		v  int32
		ok bool
	}
	classMax := func(g *graph.Graph, wantLoop bool) best {
		var b best
		for v := 0; v < g.NumVertices(); v++ {
			if g.LoopAt(int32(v)) != wantLoop {
				continue
			}
			if d := g.Degree(int32(v)); !b.ok || d > b.d {
				b = best{d, int32(v), true}
			}
		}
		return b
	}
	var bestD int64 = -1
	var bestV int64
	for _, sa := range []bool{false, true} {
		ba := classMax(p.A, sa)
		if !ba.ok {
			continue
		}
		for _, sb := range []bool{false, true} {
			bb := classMax(p.B, sb)
			if !bb.ok {
				continue
			}
			da, db := ba.d, bb.d
			var la, lb int64
			if sa {
				la = 1
			}
			if sb {
				lb = 1
			}
			d := (da+la)*(db+lb) - la*lb
			if d > bestD {
				bestD = d
				bestV = p.Vertex(ba.v, bb.v)
			}
		}
	}
	return bestD, bestV
}
