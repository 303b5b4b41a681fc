// Package kron is the core of the library: the implicit Kronecker product
// graph C = F₀ ⊗ F₁ ⊗ … ⊗ F_{k−1} and the paper's formulas that read exact
// statistics of C off cheap computations on the factors.
//
// C is never materialized (except for validation-scale factors): its
// Π|arcs(F_i)| edges are streamed, queried, or sampled from the small
// factors. Product vertices are int64 in mixed radix, factor 0 the most
// significant digit: for two factors A ⊗ B, p = i·n_B + k composes
// factor vertices i ∈ A and k ∈ B (0-based throughout; the paper is
// 1-based).
package kron

import (
	"errors"
	"fmt"

	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

// ErrTooLarge is returned when a materialization request exceeds the
// caller's limit.
var ErrTooLarge = errors.New("kron: product too large to materialize")

// Product is the implicit Kronecker product C = F₀ ⊗ … ⊗ F_{k−1} of
// k ≥ 1 factors; the paper's C = A ⊗ B is k = 2.
//
// Its closed forms read each factor's statistics from ComputeFactorStats,
// which memoizes them on the factor graph itself: every product over a
// graph, and every caller of ComputeFactorStats, shares one count, and a
// factor used twice (A ⊗ A, Kronecker powers) is counted once. The memo
// cannot go stale: graph.Graph has no mutating method, and Factors must
// not be modified after NewProduct.
type Product struct {
	Factors []*graph.Graph
	radix   []int64 // radix[i] = Π_{j>i} n_j: p = Σ idx_i·radix[i]
}

// NewProduct validates the factors (at least one, none empty, vertex and
// arc counts multiplying within int64) and returns the implicit product.
func NewProduct(factors ...*graph.Graph) (*Product, error) {
	if len(factors) == 0 {
		return nil, errors.New("kron: a product needs at least one factor")
	}
	nv, na := int64(1), int64(1)
	for _, f := range factors {
		if f.NumVertices() == 0 {
			return nil, errors.New("kron: empty factor")
		}
		var err error
		if nv, err = CheckedMul(nv, int64(f.NumVertices())); err != nil {
			return nil, fmt.Errorf("kron: vertex count overflow: %w", err)
		}
		if na, err = CheckedMul(na, f.NumArcs()); err != nil {
			return nil, fmt.Errorf("kron: arc count overflow: %w", err)
		}
	}
	p := &Product{Factors: factors, radix: make([]int64, len(factors))}
	acc := int64(1)
	for i := len(factors) - 1; i >= 0; i-- {
		p.radix[i] = acc
		acc *= int64(factors[i].NumVertices())
	}
	return p, nil
}

// MustProduct is NewProduct that panics on error, for tests and examples
// with known-good factors.
func MustProduct(factors ...*graph.Graph) *Product {
	p, err := NewProduct(factors...)
	if err != nil {
		panic(err)
	}
	return p
}

// KroneckerPower returns the k-th Kronecker power B ⊗ B ⊗ … ⊗ B.
func KroneckerPower(b *graph.Graph, k int) (*Product, error) {
	if k < 1 {
		return nil, errors.New("kron: power must be >= 1")
	}
	factors := make([]*graph.Graph, k)
	for i := range factors {
		factors[i] = b
	}
	return NewProduct(factors...)
}

// K returns the number of factors.
func (p *Product) K() int { return len(p.Factors) }

// FactorStats returns the statistics of every factor, in factor order,
// that every closed form of p reads: each factor's ComputeFactorStats,
// counted on the first use of that graph anywhere. All factors must be
// undirected.
func (p *Product) FactorStats() ([]*FactorTriangleStats, error) {
	if !p.IsSymmetric() {
		return nil, errors.New("kron: formula requires undirected factors")
	}
	stats := make([]*FactorTriangleStats, len(p.Factors))
	for i, f := range p.Factors {
		stats[i] = ComputeFactorStats(f)
	}
	return stats, nil
}

// pair returns the two factors of a product that a two-factor theorem
// addresses, or an error naming the theorem.
func (p *Product) pair(theorem string) (a, b *graph.Graph, err error) {
	if len(p.Factors) != 2 {
		return nil, nil, fmt.Errorf("kron: %s is stated for A ⊗ B, not a %d-factor product", theorem, len(p.Factors))
	}
	return p.Factors[0], p.Factors[1], nil
}

// split peels factor i's vertex, the least significant remaining digit,
// off the product vertex v; walking i from k−1 down to 0 visits every
// digit.
func (p *Product) split(v int64, i int) (x int32, rest int64) {
	n := int64(p.Factors[i].NumVertices())
	return int32(v % n), v / n
}

// digit returns factor i's vertex of product vertex v.
func (p *Product) digit(v int64, i int) int32 {
	return int32(v / p.radix[i] % int64(p.Factors[i].NumVertices()))
}

// Vertex composes one vertex per factor into the product vertex
// Σ idx_i·Π_{j>i} n_j (i·n_B + k for A ⊗ B).
func (p *Product) Vertex(idx ...int32) int64 {
	if len(idx) != len(p.Factors) {
		panic("kron: Vertex index arity mismatch")
	}
	var v int64
	for i, x := range idx {
		v += int64(x) * p.radix[i]
	}
	return v
}

// FactorsOf splits product vertex v into its per-factor vertices.
func (p *Product) FactorsOf(v int64) []int32 {
	out := make([]int32, len(p.Factors))
	for i := range out {
		out[i] = p.digit(v, i)
	}
	return out
}

// NumVertices returns n_C = Π n_i.
func (p *Product) NumVertices() int64 {
	return p.radix[0] * int64(p.Factors[0].NumVertices())
}

// NumArcs returns the number of directed arcs of C: Π |arcs(F_i)|.
func (p *Product) NumArcs() int64 {
	na := int64(1)
	for _, f := range p.Factors {
		na *= f.NumArcs()
	}
	return na
}

// NumLoops returns the number of self loops of C: Π loops(F_i).
func (p *Product) NumLoops() int64 {
	nl := int64(1)
	for _, f := range p.Factors {
		nl *= f.NumLoops()
	}
	return nl
}

// NumEdgesUndirected returns the number of undirected edges of C
// (pairs counted once, self loops once). Panics unless every factor is
// symmetric (which makes C symmetric).
func (p *Product) NumEdgesUndirected() int64 {
	if !p.IsSymmetric() {
		panic("kron: NumEdgesUndirected on a non-symmetric product")
	}
	loops := p.NumLoops()
	return (p.NumArcs()-loops)/2 + loops
}

// IsSymmetric reports whether C is symmetric. A product is symmetric
// when every factor is (the standard sufficient condition, and the only
// case the paper's undirected results address).
func (p *Product) IsSymmetric() bool {
	for _, f := range p.Factors {
		if !f.IsSymmetric() {
			return false
		}
	}
	return true
}

// HasEdge reports whether arc (u, v) exists in C: the conjunction of the
// factor adjacencies, C[p(i,k)][q(j,l)] = A[i][j]·B[k][l] for A ⊗ B.
func (p *Product) HasEdge(u, v int64) bool {
	for i := len(p.Factors) - 1; i >= 0; i-- {
		var x, y int32
		x, u = p.split(u, i)
		y, v = p.split(v, i)
		if !p.Factors[i].HasEdge(x, y) {
			return false
		}
	}
	return true
}

// HasLoop reports whether product vertex v has a self loop: a loop at
// each of its factor vertices.
func (p *Product) HasLoop(v int64) bool { return p.HasEdge(v, v) }

// OutDegreeRaw returns the raw out-degree of product vertex v including a
// self loop: Π rowsum_i(idx_i).
func (p *Product) OutDegreeRaw(v int64) int64 {
	d := int64(1)
	for i := len(p.Factors) - 1; i >= 0; i-- {
		var x int32
		x, v = p.split(v, i)
		d *= p.Factors[i].OutDegreeRaw(x)
	}
	return d
}

// Degree returns the paper's degree of product vertex v (excluding its
// self loop): d_C(p) = Π (d_i + s_i) − Π s_i, where s is the self-loop
// indicator. This single expression covers all three self-loop regimes of
// §III.A.
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
	p.eachNeighbor(v, 0, len(p.Factors), 0, nil, fn)
}

// eachNeighbor calls fn, in increasing order, with base plus the id of
// every neighbor of v on factors depth..end−1 (digits before depth are
// fixed in base, digits from end on are zero). Unless pos is nil, pos[i]
// holds, during each call, the position in factor i's arc array of the
// arc that digit i takes, for i in depth..end−1.
func (p *Product) eachNeighbor(v int64, depth, end int, base int64, pos []int64, fn func(u int64) bool) bool {
	if depth == end {
		return fn(base)
	}
	f, x := p.Factors[depth], p.digit(v, depth)
	off := f.ArcOffset(x)
	for k, j := range f.Neighbors(x) {
		if pos != nil {
			pos[depth] = off + int64(k)
		}
		if !p.eachNeighbor(v, depth+1, end, base+int64(j)*p.radix[depth], pos, fn) {
			return false
		}
	}
	return true
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

// LeftRows returns the number of rows of L = F₀ ⊗ … ⊗ F_{k−2}, the
// product of every factor but the last (1 for a single factor). Row r of
// L owns the product vertices [r·n_last, (r+1)·n_last).
func (p *Product) LeftRows() int64 {
	return p.NumVertices() / int64(p.Factors[len(p.Factors)-1].NumVertices())
}

// LeftArcOffset returns the number of arcs of L in its rows [0, r), for
// 0 ≤ r ≤ LeftRows(), in O(k): a row's offset is the mixed-radix sum
// Σ_i (Π_{j<i} rowsum_j(r_j))·ArcOffset_i(r_i)·(Π_{i<j<k−1} |arcs(F_j)|).
func (p *Product) LeftArcOffset(r int64) int64 {
	off, tail := int64(0), int64(1)
	for i := len(p.Factors) - 2; i >= 0; i-- {
		var x int32
		x, r = p.split(r, i)
		f := p.Factors[i]
		off = f.ArcOffset(x)*tail + f.OutDegreeRaw(x)*off
		tail *= f.NumArcs()
	}
	return off + r*tail // r is left 1 at r = LeftRows(), else 0
}

// EachArcBatchRange streams the product arcs whose L row (see LeftRows)
// lies in [lo, hi), in canonical EachArc order, delivered as batches: the
// generator fills buf and hands every full batch — plus the final partial
// one — to emit. emit takes ownership of the slice it receives and
// returns the next buffer to fill (len 0, its cap sets the batch size), or
// nil to stop early. This is the hot path of the generation pipeline:
// each L row's sorted neighbor bases are filled once, then walked against
// the last factor's rows straight into a flat buffer with no per-arc
// callback. For A ⊗ B, L = A.
func (p *Product) EachArcBatchRange(lo, hi int64, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
	if cap(buf) == 0 {
		buf = make([]stream.Arc, 0, stream.DefaultBatchSize)
	}
	buf = buf[:cap(buf)]
	n := 0
	last := p.Factors[len(p.Factors)-1]
	nB := int64(last.NumVertices())
	var bases []int64
	for r := lo; r < hi; r++ {
		// The sorted ids j·n_last of row r's neighbors j in L.
		bases = bases[:0]
		p.eachNeighbor(r*nB, 0, len(p.Factors)-1, 0, nil, func(base int64) bool {
			bases = append(bases, base)
			return true
		})
		if len(bases) == 0 {
			continue
		}
		for k := int64(0); k < nB; k++ {
			nbB := last.Neighbors(int32(k))
			if len(nbB) == 0 {
				continue
			}
			u := r*nB + k
			if n+len(bases)*len(nbB) < len(buf) {
				n = fillBlock(buf, n, u, bases, nbB)
				continue
			}
			// The block reaches the end of the batch.
			for _, base := range bases {
				for _, l := range nbB {
					buf[n] = stream.Arc{U: u, V: base + int64(l)}
					if n++; n == len(buf) {
						if buf = emit(buf); buf == nil {
							return
						}
						buf, n = buf[:cap(buf)], 0
					}
				}
			}
		}
	}
	if n > 0 {
		emit(buf[:n])
	}
}

// fillBlock writes the arcs (u, base + l), for every base and then every
// l, into dst from position n, and returns the position after them. It
// is kept out of line: inlined beside the emit call, its loop variables
// are spilled to the stack on every arc.
//
//go:noinline
func fillBlock(dst []stream.Arc, n int, u int64, bases []int64, nbB []int32) int {
	for _, base := range bases {
		for _, l := range nbB {
			dst[n] = stream.Arc{U: u, V: base + int64(l)}
			n++
		}
	}
	return n
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
	p.EachArcBatchRange(0, p.LeftRows(), buf, func(full []stream.Arc) []stream.Arc {
		if !fn(full) {
			return nil
		}
		return full[:0]
	})
}

// EachArc streams every arc (u, v) of C in lexicographic order: the full
// Π|arcs(F_i)| edge list of the product, generated from the factors
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
// closed-form raw degree Π rowsum_i, and the batched stream — already in
// canonical sorted order and duplicate-free — fills the flat neighbor
// array sequentially. No edge list, no sort, no dedup.
func (p *Product) Materialize(maxVertices, maxArcs int64) (*graph.Graph, error) {
	if p.NumVertices() > maxVertices || p.NumArcs() > maxArcs {
		return nil, fmt.Errorf("%w: %d vertices, %d arcs", ErrTooLarge, p.NumVertices(), p.NumArcs())
	}
	if p.NumVertices() > (1<<31 - 1) {
		return nil, fmt.Errorf("%w: %d vertices exceed explicit-graph limit", ErrTooLarge, p.NumVertices())
	}
	offsets := make([]int64, p.NumVertices()+1)
	for v := int64(0); v < p.NumVertices(); v++ {
		offsets[v+1] = offsets[v] + p.OutDegreeRaw(v)
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
	if f := p.Factors[0]; f.IsLabeled() {
		labels := make([]int32, p.NumVertices())
		for v := range labels {
			labels[v] = p.Label(int64(v))
		}
		c = c.WithLabels(labels, f.NumLabels())
	}
	return c, nil
}

// Label returns the inherited label of product vertex v when the first
// factor is labeled: f_C(p) = f_A(i(p)) (§V).
func (p *Product) Label(v int64) int32 {
	return p.Factors[0].Label(p.digit(v, 0))
}

// DegreeVector materializes the full degree vector of C (n_C entries);
// only for validation-scale products.
func (p *Product) DegreeVector() []int64 { return degreeSum(p).Vector() }

// MaxDegree returns the maximum degree of C along with a vertex achieving
// it, computed from the factors in O(Σ n_i + k²). With x = d + s, the
// degree Π x_i − Π s_i is monotone in each x_i within a fixed loop class,
// so only the best vertex of each factor's two loop classes (no loop,
// loop) matters. Of the class combinations reaching the maximum the
// lexicographically first is taken, no loop before loop, and in it each
// factor's lowest-id best vertex.
func (p *Product) MaxDegree() (int64, int64) {
	k := len(p.Factors)
	type best struct {
		x  int64 // d + s
		v  int32
		ok bool
	}
	classes := make([][2]best, k)
	for i, f := range p.Factors {
		for v := int32(0); int(v) < f.NumVertices(); v++ {
			s := 0
			if f.LoopAt(v) {
				s = 1
			}
			if x := f.Degree(v) + int64(s); !classes[i][s].ok || x > classes[i][s].x {
				classes[i][s] = best{x, v, true}
			}
		}
	}
	// Over factors i..k−1: anyX[i] is the largest Π x, loopX[i] the Π x
	// of all-loop classes and mixedX[i] the largest Π x of the others (-1
	// where no combination exists; the empty suffix is all-loop).
	anyX, loopX, mixedX := make([]int64, k+1), make([]int64, k+1), make([]int64, k+1)
	anyX[k], loopX[k], mixedX[k] = 1, 1, -1
	mul := func(a, b int64) int64 {
		if a < 0 || b < 0 {
			return -1
		}
		return a * b
	}
	for i := k - 1; i >= 0; i-- {
		xs := [2]int64{-1, -1}
		for s, b := range classes[i] {
			if b.ok {
				xs[s] = b.x
			}
		}
		anyX[i] = mul(max(xs[0], xs[1]), anyX[i+1])
		loopX[i] = mul(xs[1], loopX[i+1])
		mixedX[i] = max(mul(xs[0], anyX[i+1]), mul(xs[1], mixedX[i+1]))
	}
	// bestFrom is the largest degree over completions of a prefix with
	// product prefix whose classes were all loops when allLoop.
	bestFrom := func(i int, prefix int64, allLoop bool) int64 {
		if !allLoop {
			return mul(prefix, anyX[i])
		}
		d := mul(prefix, mixedX[i])
		if l := mul(prefix, loopX[i]); l >= 0 {
			d = max(d, l-1)
		}
		return d
	}
	want := bestFrom(0, 1, true)
	var v int64
	prefix, allLoop := int64(1), true
	for i := range classes {
		for s, b := range classes[i] {
			if b.ok && bestFrom(i+1, prefix*b.x, allLoop && s == 1) == want {
				prefix, allLoop = prefix*b.x, allLoop && s == 1
				v += int64(b.v) * p.radix[i]
				break
			}
		}
	}
	return want, v
}
