package kron

import (
	"errors"
	"fmt"
	"math/bits"

	"kronvalid/internal/graph"
)

var errWedgeOverflow = fmt.Errorf("kron: wedge count exceeds int64: %w", ErrOverflow)

// WedgeCount returns the exact number of wedges (paths of length two
// through a center) of C: Σ_p d_C(p)·(d_C(p)-1)/2, computed in O(Σ n_i)
// from the factors. With x = d + s per factor vertex, the degree
// d_C = Π x_i − Π s_i gives
//
//	Σ d_C  = Π Σx_i − Π n_i^loop,
//	Σ d_C² = Π Σx_i² − 2·Π Σ_loop x_i + Π n_i^loop,
//
// where n_i^loop counts factor i's looped vertices and Σ_loop sums over
// them. Each product is checked in 128 bits; a count that does not fit
// int64 is an error wrapping ErrOverflow. All factors must be
// undirected.
func WedgeCount(p *Product) (int64, error) {
	if !p.IsSymmetric() {
		return 0, errors.New("kron: formula requires undirected factors")
	}
	var sums [][4]uint64
	for _, f := range p.Factors {
		s, ok := degreeSums(f)
		if !ok {
			return 0, fmt.Errorf("kron: factor degree sums exceed 64 bits: %w", ErrOverflow)
		}
		sums = append(sums, s)
	}
	var prods [4]u128
	for j := range prods {
		var ok bool
		if prods[j], ok = product128(sums, j); !ok {
			return 0, errWedgeOverflow
		}
	}
	x, x2, xLoop, nLoop := prods[0], prods[1], prods[2], prods[3]
	// Σ d(d−1) = Σd² − Σd lies in [0, Σx²], so with every product exact,
	// the modular 128-bit arithmetic below is exact too.
	sumD := x.sub(nLoop)
	sumD2 := x2.sub(xLoop).sub(xLoop).add(nLoop)
	twice := sumD2.sub(sumD)
	if twice.hi != 0 {
		return 0, errWedgeOverflow
	}
	return int64(twice.lo / 2), nil
}

// degreeSums returns g's sums Σx, Σx², Σ_loop x and n^loop, over
// x = d+s. ok is false when Σx² leaves 64 bits, which takes more than
// 2^33 arcs (it is at most n·(arcs+n)); while it fits, every sum does.
func degreeSums(g *graph.Graph) (sums [4]uint64, ok bool) {
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		x := uint64(g.Degree(v))
		if g.LoopAt(v) {
			x++
			sums[2] += x
			sums[3]++
		}
		var carry uint64
		if sums[1], carry = bits.Add64(sums[1], x*x, 0); carry != 0 {
			return sums, false
		}
		sums[0] += x
	}
	return sums, true
}

// u128 is an unsigned 128-bit integer; add and sub wrap modulo 2^128.
type u128 struct{ hi, lo uint64 }

// product128 returns Π_f sums[f][j], and false when it leaves 128 bits.
func product128(sums [][4]uint64, j int) (u128, bool) {
	for _, s := range sums {
		if s[j] == 0 {
			return u128{}, true
		}
	}
	acc := u128{0, 1}
	for _, s := range sums {
		hi, lo := bits.Mul64(acc.lo, s[j])
		over, mid := bits.Mul64(acc.hi, s[j])
		hi, carry := bits.Add64(hi, mid, 0)
		if over != 0 || carry != 0 {
			return u128{}, false
		}
		acc = u128{hi, lo}
	}
	return acc, true
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
