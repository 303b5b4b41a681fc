package kron

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
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

// bigWedges is Σ_p C(d_C(p), 2) in arbitrary precision, where
// d_C = Π x_i − Π s_i with x = d + s, grouped by each factor's distinct
// (x, s) classes.
func bigWedges(factors ...*graph.Graph) *big.Int {
	type class struct{ x, s int64 }
	counts := make([]map[class]int64, len(factors))
	for i, g := range factors {
		counts[i] = map[class]int64{}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			var s int64
			if g.LoopAt(v) {
				s = 1
			}
			counts[i][class{g.Degree(v) + s, s}]++
		}
	}
	one := big.NewInt(1)
	total := new(big.Int)
	var walk func(i int, x, n *big.Int, loop bool)
	walk = func(i int, x, n *big.Int, loop bool) {
		if i == len(factors) {
			d := new(big.Int).Set(x)
			if loop {
				d.Sub(d, one)
			}
			pairs := new(big.Int).Mul(d, new(big.Int).Sub(d, one))
			pairs.Rsh(pairs, 1)
			total.Add(total, pairs.Mul(pairs, n))
			return
		}
		for c, m := range counts[i] {
			walk(i+1, new(big.Int).Mul(x, big.NewInt(c.x)), new(big.Int).Mul(n, big.NewInt(m)), loop && c.s == 1)
		}
	}
	walk(0, one, one, true)
	return total
}

// TestWedgeCountNearInt64Max: Star(2^16) ⊗ Star(2^16) has 9.2231e18
// wedges, below 2^63 although Σd² is not; one more leaf per star passes
// 2^63. Likewise Star(1625)^⊗3 fits and Star(1626)^⊗3, whose sums carry
// into the high word of the 128-bit products, does not. All agree with
// the arbitrary-precision count, as do small looped products of up to
// three factors.
func TestWedgeCountNearInt64Max(t *testing.T) {
	for _, c := range []struct {
		fits, over []*graph.Graph
	}{
		{[]*graph.Graph{gen.Star(1 << 16), gen.Star(1 << 16)}, []*graph.Graph{gen.Star(1<<16 + 1), gen.Star(1<<16 + 1)}},
		{[]*graph.Graph{gen.Star(1625), gen.Star(1625), gen.Star(1625)}, []*graph.Graph{gen.Star(1626), gen.Star(1626), gen.Star(1626)}},
	} {
		got, err := WedgeCount(MustProduct(c.fits...))
		if err != nil {
			t.Fatal(err)
		}
		if want := bigWedges(c.fits...); !want.IsInt64() || got != want.Int64() {
			t.Fatalf("k=%d: wedges = %d, want %v", len(c.fits), got, want)
		}
		if want := bigWedges(c.over...); want.IsInt64() {
			t.Fatalf("k=%d: %v wedges fit int64; the case no longer tests overflow", len(c.over), want)
		}
		if _, err := WedgeCount(MustProduct(c.over...)); !errors.Is(err, ErrOverflow) {
			t.Fatalf("k=%d past 2^63: err = %v, want ErrOverflow", len(c.over), err)
		}
	}
	looped := []*graph.Graph{gen.Star(40).WithLoopAt(0), gen.CliqueWithLoops(5), gen.HubCycle(6).WithLoopAt(2).WithLoopAt(0)}
	for k := 1; k <= len(looped); k++ {
		got, err := WedgeCount(MustProduct(looped[:k]...))
		if want := bigWedges(looped[:k]...); err != nil || got != want.Int64() {
			t.Fatalf("looped k=%d: wedges = %d, %v; want %v", k, got, err, want)
		}
	}
}

// TestWedgeCountOverflowIsAnError: Star(2^20) ⊗ Star(2^20) has ≈ 6·10^23
// wedges; the count and the transitivity built on it report overflow
// instead of a wrapped number.
func TestWedgeCountOverflowIsAnError(t *testing.T) {
	star := gen.Star(1 << 20)
	p := MustProduct(star, star)
	if w, err := WedgeCount(p); !errors.Is(err, ErrOverflow) {
		t.Fatalf("WedgeCount = %d, %v; want ErrOverflow", w, err)
	}
	if c, err := GlobalClustering(p); !errors.Is(err, ErrOverflow) {
		t.Fatalf("GlobalClustering = %v, %v; want ErrOverflow", c, err)
	}
}
