package kron

import (
	"fmt"
	"math/bits"

	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
)

// WedgeCount returns the exact number of wedges (paths of length two
// through a center) of C: Σ_p d_C(p)·(d_C(p)-1)/2, computed in
// O(n_A + n_B) from the factors. The degree formula
// d_C = (d_A+s_A)(d_B+s_B) - s_A·s_B factorizes over the four self-loop
// class combinations, so Σ d_C and Σ d_C² reduce to per-class factor
// sums. Both sums are accumulated in 128 bits; a count that does not fit
// int64 is an error wrapping sparse.ErrOverflow. Both factors must be
// undirected.
func WedgeCount(p *Product) (int64, error) {
	if err := requireUndirected(p); err != nil {
		return 0, err
	}
	pa, okA := classSums(p.A)
	pb, okB := classSums(p.B)
	if !okA || !okB {
		return 0, fmt.Errorf("kron: factor degree sums exceed 64 bits: %w", sparse.ErrOverflow)
	}
	var sumD, sumD2 u128
	for sa := range pa {
		for sb := range pb {
			x, y := pa[sa], pb[sb]
			// d = x·y: product form.
			sumD = sumD.add(mul128(x.s1, y.s1))
			sumD2 = sumD2.add(mul128(x.s2, y.s2))
			if sa == 1 && sb == 1 {
				// d = x·y - 1: Σd = Σx·Σy - n; Σd² = Σx²Σy² - 2ΣxΣy + n.
				n, xy := mul128(x.s0, y.s0), mul128(x.s1, y.s1)
				sumD = sumD.sub(n)
				sumD2 = sumD2.sub(xy).sub(xy).add(n)
			}
		}
	}
	// Σ d(d-1) = Σd² - Σd. It is below Σ_A(d+s)²·Σ_B(d+s)² < 2^128, so
	// the modular 128-bit arithmetic above is exact.
	twice := sumD2.sub(sumD)
	if twice.hi != 0 {
		return 0, fmt.Errorf("kron: wedge count exceeds int64: %w", sparse.ErrOverflow)
	}
	return int64(twice.lo / 2), nil
}

// powers holds the power sums Σ x^k, k = 0, 1, 2, of x = d+s over one
// loop class of a factor's vertices.
type powers struct{ s0, s1, s2 uint64 }

// classSums returns g's power sums indexed by the loop indicator s. ok is
// false when Σ(d+s)² over all of g leaves 64 bits, which takes more than
// 2^33 arcs (it is at most n·(arcs+n)); while it fits, every sum does.
func classSums(g *graph.Graph) (ps [2]powers, ok bool) {
	var all uint64
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		s := 0
		if g.LoopAt(v) {
			s = 1
		}
		x := uint64(g.Degree(v)) + uint64(s)
		var carry uint64
		if all, carry = bits.Add64(all, x*x, 0); carry != 0 {
			return ps, false
		}
		ps[s].s0++
		ps[s].s1 += x
		ps[s].s2 += x * x
	}
	return ps, true
}

// u128 is an unsigned 128-bit integer, wrapping modulo 2^128.
type u128 struct{ hi, lo uint64 }

func mul128(a, b uint64) u128 {
	hi, lo := bits.Mul64(a, b)
	return u128{hi, lo}
}

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

// LocalClustering returns a per-vertex local clustering coefficient
// evaluator for C: cc(p) = 2·t_C(p) / (d_C(p)·(d_C(p)-1)), the §I
// motivating statistic, queryable at any of the n_A·n_B vertices in O(1).
func LocalClustering(p *Product) (func(v int64) float64, error) {
	t, err := VertexParticipation(p)
	if err != nil {
		return nil, err
	}
	return func(v int64) float64 {
		d := p.Degree(v)
		if d < 2 {
			return 0
		}
		return 2 * float64(t.At(v)) / (float64(d) * float64(d-1))
	}, nil
}

// GlobalClustering returns the exact transitivity of C:
// 3·τ(C) / #wedges(C), without materializing anything. This is the
// normalization under which Rem. 1's stochastic-vs-nonstochastic
// comparison is made.
func GlobalClustering(p *Product) (float64, error) {
	wedges, err := WedgeCount(p)
	if err != nil {
		return 0, err
	}
	if wedges == 0 {
		return 0, nil
	}
	tau, err := TriangleTotal(p)
	if err != nil {
		return 0, err
	}
	return 3 * float64(tau) / float64(wedges), nil
}
