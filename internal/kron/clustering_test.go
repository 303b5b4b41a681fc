package kron

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

func TestWedgeCountAgainstMaterialized(t *testing.T) {
	g := rng.New(61)
	cases := []struct{ loopsA, loopsB float64 }{
		{0, 0}, {0, 0.5}, {0.5, 0}, {0.5, 0.5},
	}
	for _, tc := range cases {
		for trial := 0; trial < 5; trial++ {
			a := randomUndirected(g, 5+g.Intn(8), 3.5, tc.loopsA)
			b := randomUndirected(g, 5+g.Intn(8), 3.5, tc.loopsB)
			p := MustProduct(a, b)
			got, err := WedgeCount(p)
			if err != nil {
				t.Fatal(err)
			}
			c := materialize(t, p)
			cl := c.WithoutLoops()
			var want int64
			for v := 0; v < cl.NumVertices(); v++ {
				d := cl.OutDegreeRaw(int32(v))
				want += d * (d - 1) / 2
			}
			if got != want {
				t.Fatalf("loops (%.1f,%.1f): wedges = %d, want %d", tc.loopsA, tc.loopsB, got, want)
			}
		}
	}
}

func TestGlobalClusteringAgainstMaterialized(t *testing.T) {
	g := rng.New(62)
	for trial := 0; trial < 6; trial++ {
		a := randomUndirected(g, 6+g.Intn(6), 4, g.Float64()*0.5)
		b := randomUndirected(g, 6+g.Intn(6), 4, g.Float64()*0.5)
		p := MustProduct(a, b)
		got, err := GlobalClustering(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p)
		want := triangle.GlobalClusteringCoefficient(c)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: transitivity %v, direct %v", trial, got, want)
		}
	}
}

func TestGlobalClusteringClique(t *testing.T) {
	// K_n ⊗ K_m with loops everywhere is a full clique: transitivity 1.
	p := MustProduct(gen.CliqueWithLoops(3), gen.CliqueWithLoops(4))
	got, err := GlobalClustering(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("clique transitivity = %v, want 1", got)
	}
}

func TestWedgeCountRejectsDirected(t *testing.T) {
	dir := randomDirected(rng.New(1), 4, 2, 0.2)
	p := MustProduct(dir, gen.Clique(3))
	if _, err := WedgeCount(p); err == nil {
		t.Fatal("expected error for directed factors")
	}
}

func TestLocalClusteringAgainstDirect(t *testing.T) {
	g := rng.New(63)
	a := randomUndirected(g, 8, 4, 0.3)
	b := randomUndirected(g, 7, 4, 0.3)
	p := MustProduct(a, b)
	cc, err := LocalClustering(p)
	if err != nil {
		t.Fatal(err)
	}
	c := materialize(t, p)
	want := triangle.LocalClusteringCoefficients(c)
	for v := int64(0); v < p.NumVertices(); v++ {
		if math.Abs(cc(v)-want[v]) > 1e-12 {
			t.Fatalf("cc(%d) = %v, direct %v", v, cc(v), want[v])
		}
	}
}

// bigWedges is Σ_p C(d_C(p), 2) in arbitrary precision for loop-free
// factors (d_C = d_A·d_B), grouped by distinct factor degrees.
func bigWedges(a, b *graph.Graph) *big.Int {
	count := func(g *graph.Graph) map[int64]int64 {
		m := map[int64]int64{}
		for _, d := range g.Degrees() {
			m[d]++
		}
		return m
	}
	total := new(big.Int)
	for da, ca := range count(a) {
		for db, cb := range count(b) {
			d := new(big.Int).Mul(big.NewInt(da), big.NewInt(db))
			pairs := new(big.Int).Mul(d, new(big.Int).Sub(d, big.NewInt(1)))
			pairs.Rsh(pairs, 1)
			pairs.Mul(pairs, new(big.Int).Mul(big.NewInt(ca), big.NewInt(cb)))
			total.Add(total, pairs)
		}
	}
	return total
}

// TestWedgeCountNearInt64Max: Star(2^16) ⊗ Star(2^16) has 9.2231e18
// wedges, below 2^63 although Σd² is not; one more leaf per star passes
// 2^63. Both agree with the arbitrary-precision count.
func TestWedgeCountNearInt64Max(t *testing.T) {
	fits := MustProduct(gen.Star(1<<16), gen.Star(1<<16))
	got, err := WedgeCount(fits)
	if err != nil {
		t.Fatal(err)
	}
	if want := bigWedges(fits.A, fits.B); !want.IsInt64() || got != want.Int64() {
		t.Fatalf("wedges = %d, want %v", got, want)
	}
	over := MustProduct(gen.Star(1<<16+1), gen.Star(1<<16+1))
	if want := bigWedges(over.A, over.B); want.IsInt64() {
		t.Fatalf("%v wedges fit int64; the case no longer tests overflow", want)
	}
	if _, err := WedgeCount(over); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("past 2^63: err = %v, want sparse.ErrOverflow", err)
	}
}

// TestWedgeCountOverflowIsAnError: Star(2^20) ⊗ Star(2^20) has ≈ 6·10^23
// wedges; the count and the transitivity built on it report overflow
// instead of a wrapped number.
func TestWedgeCountOverflowIsAnError(t *testing.T) {
	star := gen.Star(1 << 20)
	p := MustProduct(star, star)
	if w, err := WedgeCount(p); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("WedgeCount = %d, %v; want sparse.ErrOverflow", w, err)
	}
	if c, err := GlobalClustering(p); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("GlobalClustering = %v, %v; want sparse.ErrOverflow", c, err)
	}
}
