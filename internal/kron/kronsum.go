package kron

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrOverflow is returned (or panicked, in contexts where a statistic is
// guaranteed representable) when an exact integer computation would exceed
// int64. Triangle totals of Kronecker product graphs grow multiplicatively,
// so the library checks rather than silently wrapping.
var ErrOverflow = errors.New("kron: int64 overflow in exact computation")

// CheckedMul returns a*b, or ErrOverflow if the product does not fit int64.
// Inputs are expected to be nonnegative counts.
func CheckedMul(a, b int64) (int64, error) {
	if a < 0 || b < 0 {
		return 0, errors.New("kron: negative count")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1<<63-1) {
		return 0, ErrOverflow
	}
	return int64(lo), nil
}

// Term is one signed Kronecker term coef·(x₀ ⊗ x₁ ⊗ … ⊗ x_{k−1}) of a
// statistic's expansion, one array per factor: a vector over its
// vertices in a KronVecSum, a per-edge statistic over its arcs (one
// value per arc, at the arc's position) in a KronMatSum.
type Term struct {
	Coef int64
	Vecs [][]int64
}

// KronVecSum represents a vertex statistic of the product graph as
// (1/Den)·Σ_m coef_m (⊗_i u_{m,i}), evaluated lazily per product vertex.
// This is the shape every per-vertex Kronecker formula in the paper takes
// (Thm. 1, Cor. 1, the general self-loop expansion, Thm. 4, Thm. 6).
// Vector i has factor i's vertex count as its length.
type KronVecSum struct {
	Terms []Term
	Den   int64 // divisor applied after summation (1 or 2)
}

// At evaluates the statistic at product vertex p.
func (s *KronVecSum) At(p int64) int64 {
	var acc int64
	for _, t := range s.Terms {
		acc += t.Coef * vecAt(t.Vecs, p)
	}
	if acc%s.Den != 0 {
		panic(fmt.Sprintf("kron: non-integral statistic %d/%d at vertex %d", acc, s.Den, p))
	}
	return acc / s.Den
}

// vecAt returns (⊗_i u_i)[p], the product of u_i at p's mixed-radix
// digits, the last vector's the least significant.
func vecAt(us [][]int64, p int64) int64 {
	prod := int64(1)
	for i := len(us) - 1; i > 0; i-- {
		n := int64(len(us[i]))
		if prod *= us[i][p%n]; prod == 0 {
			return 0
		}
		p /= n
	}
	return prod * us[0][p]
}

// Len returns the number of product vertices.
func (s *KronVecSum) Len() int64 {
	if len(s.Terms) == 0 {
		return 0
	}
	n := int64(1)
	for _, u := range s.Terms[0].Vecs {
		n *= int64(len(u))
	}
	return n
}

// Vector materializes the full statistic vector; only for
// validation-scale products.
func (s *KronVecSum) Vector() []int64 {
	out := make([]int64, s.Len())
	for p := range out {
		out[p] = s.At(int64(p))
	}
	return out
}

// Total returns Σ_p At(p) with overflow checking, computed from factor
// sums: Σ (⊗_i u_i) = Π_i Σu_i.
func (s *KronVecSum) Total() (int64, error) {
	var t total
	for _, term := range s.Terms {
		t.add(term.Coef, term.Vecs)
	}
	return t.result(s.Den)
}

// MustTotal is Total that panics on overflow.
func (s *KronVecSum) MustTotal() int64 {
	v, err := s.Total()
	if err != nil {
		panic(err)
	}
	return v
}

// KronMatSum represents an edge statistic of the product graph as
// Σ_m coef_m (⊗_i M_{m,i}), evaluated lazily per product arc. This is the
// shape of every per-edge Kronecker formula (Thm. 2, Cor. 2, the general
// self-loop expansion, Thm. 3, Thm. 5, Thm. 7). Every matrix is supported
// on its factor's arcs, so the statistic is supported on the product's.
type KronMatSum struct {
	p     *Product
	Terms []Term
}

// At evaluates the statistic at product arc (p, q), 0 if (p, q) is not
// an arc of the product. It finds each factor's arc by binary search;
// Vector reads every arc in order without one.
func (s *KronMatSum) At(p, q int64) int64 {
	var acc int64
	for _, t := range s.Terms {
		acc += t.Coef * s.termAt(t.Vecs, p, q)
	}
	return acc
}

// termAt returns (⊗_i M_i)[p][q]: the product of M_i at the arc of factor
// i joining the mixed-radix digits of p and q, or 0 if a digit pair is no
// arc.
func (s *KronMatSum) termAt(ms [][]int64, p, q int64) int64 {
	prod := int64(1)
	for i := len(ms) - 1; i >= 0 && prod != 0; i-- {
		g := s.p.Factors[i]
		n := int64(g.NumVertices())
		a := g.ArcIndex(int32(p%n), int32(q%n))
		if a < 0 {
			return 0
		}
		prod *= ms[i][a]
		p, q = p/n, q/n
	}
	return prod
}

// Vector materializes the statistic at every arc of the product, in
// EachArc order: a per-edge statistic of Product.Materialize's graph.
// Only for validation-scale products.
func (s *KronMatSum) Vector() []int64 {
	out := make([]int64, 0, s.p.NumArcs())
	s.eachRow(func(_ int64, vals []int64) {
		out = append(out, vals...)
	})
	return out
}

// eachRow calls fn with every product vertex u, in order, and the
// statistic at u's arcs, in EachArc order; vals is reused between calls.
// It walks the rows the way EachArcBatchRange does, carrying each arc's
// position in every factor's arc array: a term's factors before the last
// multiply once per neighbor in L, and each arc then costs one
// multiply-add per term.
func (s *KronMatSum) eachRow(fn func(u int64, vals []int64)) {
	p := s.p
	k, nt := len(p.Factors), len(s.Terms)
	last := p.Factors[k-1]
	nB := int64(last.NumVertices())
	pos := make([]int64, k)
	var left, vals []int64 // left[j·nt+t]: term t's coef·Π_{i<k−1} M_{t,i} at row neighbor j
	for r := int64(0); r < p.LeftRows(); r++ {
		left = left[:0]
		nb := 0
		p.eachNeighbor(r*nB, 0, k-1, 0, pos, func(int64) bool {
			nb++
			for _, t := range s.Terms {
				x := t.Coef
				for i, m := range t.Vecs[:k-1] {
					x *= m[pos[i]]
				}
				left = append(left, x)
			}
			return true
		})
		for b := int64(0); b < nB; b++ {
			off, deg := last.ArcOffset(int32(b)), int(last.OutDegreeRaw(int32(b)))
			vals = slices.Grow(vals[:0], nb*deg)[:nb*deg]
			clear(vals)
			for t, term := range s.Terms {
				m := term.Vecs[k-1][off : off+int64(deg)]
				for j := range nb {
					if x := left[j*nt+t]; x != 0 {
						row := vals[j*deg : (j+1)*deg][:len(m)]
						for l, y := range m {
							row[l] += x * y
						}
					}
				}
			}
			fn(r*nB+b, vals)
		}
	}
}

// Total returns the sum of all entries, from factor totals, with overflow
// checking.
func (s *KronMatSum) Total() (int64, error) {
	var t total
	for _, term := range s.Terms {
		t.add(term.Coef, term.Vecs)
	}
	return t.result(1)
}

// total accumulates Σ_m coef_m·Π_i Σx_{m,i}, the sum of the entries of
// Σ_m coef_m (⊗_i x_{m,i}), for nonnegative x, in 128 bits: a term may
// leave int64, and terms of opposite sign cancel, as long as the result
// fits.
type total struct {
	pos, neg u128
	err      error
}

func (t *total) add(coef int64, xs [][]int64) {
	term, over := u128{lo: uint64(coef)}, false
	if coef < 0 {
		term.lo = uint64(-coef)
	}
	for _, x := range xs {
		var lo, hi, c uint64
		var signs int64
		for _, v := range x {
			lo, c = bits.Add64(lo, uint64(v), 0)
			hi += c
			signs |= v
		}
		if signs < 0 {
			t.err = errors.New("kron: negative count")
		}
		if hi == 0 && lo == 0 {
			return // a zero factor sum: the term is 0, whatever the others
		}
		var ok bool
		term, ok = term.mul(u128{hi, lo})
		over = over || !ok
	}
	acc := &t.pos
	if coef < 0 {
		acc = &t.neg
	}
	if *acc = acc.add(term); over || acc.less(term) {
		t.err = ErrOverflow
	}
}

// result returns the total divided by den, or an error when it is not
// a multiple of den or does not fit int64.
func (t *total) result(den int64) (int64, error) {
	if t.err != nil {
		return 0, t.err
	}
	mag, neg := t.pos.sub(t.neg), t.pos.less(t.neg)
	if neg {
		mag = t.neg.sub(t.pos)
	}
	if mag.hi != 0 || mag.lo/uint64(den) > math.MaxInt64 {
		return 0, ErrOverflow
	}
	if mag.lo%uint64(den) != 0 {
		return 0, fmt.Errorf("kron: non-integral total %d/%d", mag.lo, den)
	}
	v := int64(mag.lo / uint64(den))
	if neg {
		v = -v
	}
	return v, nil
}

// u128 is an unsigned 128-bit integer; add and sub wrap modulo 2^128.
type u128 struct{ hi, lo uint64 }

func (x u128) add(y u128) u128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, c)
	return u128{hi, lo}
}

func (x u128) sub(y u128) u128 {
	lo, b := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, b)
	return u128{hi, lo}
}

func (x u128) less(y u128) bool { return x.hi < y.hi || (x.hi == y.hi && x.lo < y.lo) }

// mul returns x·y, and false when it leaves 128 bits.
func (x u128) mul(y u128) (u128, bool) {
	if x.hi != 0 && y.hi != 0 {
		return u128{}, false
	}
	if x.hi != 0 {
		x, y = y, x
	}
	hi, lo := bits.Mul64(x.lo, y.lo)
	over, mid := bits.Mul64(x.lo, y.hi)
	hi, c := bits.Add64(hi, mid, 0)
	return u128{hi, lo}, over == 0 && c == 0
}
