package kron

import "fmt"

// WedgeCount returns the exact number of wedges (paths of length two
// through a center) of C, Σ_p d_C(p)·(d_C(p)−1)/2: the total of the
// wedge column, from factor sums in O(Σ n_i). The terms are summed in 128
// bits, so a count that fits int64 is exact although Σd_C² need not fit;
// a count that does not is an error wrapping ErrOverflow. All factors
// must be undirected.
func WedgeCount(p *Product) (int64, error) {
	w, err := wedgeSum(p)
	if err != nil {
		return 0, err
	}
	n, err := w.Total()
	if err != nil {
		return 0, fmt.Errorf("kron: wedge count: %w", err)
	}
	return n, nil
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
