package rng

import (
	"math"
	"testing"
)

// Micro-benchmarks for the draw primitives the model generators sit on.
// Run with: go test ./internal/rng -run '^$' -bench . -benchmem

func BenchmarkUint64(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	g := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Float64()
	}
	_ = sink
}

func BenchmarkFill(b *testing.B) {
	g := New(1)
	dst := make([]uint64, 1024)
	b.SetBytes(int64(len(dst)) * 8)
	for i := 0; i < b.N; i++ {
		g.Fill(dst)
	}
}

func BenchmarkBelow(b *testing.B) {
	g := New(1)
	thr := FixedThreshold(0.57)
	var sink int
	for i := 0; i < b.N; i++ {
		if g.Below(thr) {
			sink++
		}
	}
	_ = sink
}

func BenchmarkFloat64Compare(b *testing.B) {
	// The float path Below replaces, for a like-for-like margin.
	g := New(1)
	const p = 0.57
	var sink int
	for i := 0; i < b.N; i++ {
		if g.Float64() < p {
			sink++
		}
	}
	_ = sink
}

func BenchmarkFixedThreshold(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += FixedThreshold(float64(i&1023) / 1024)
	}
	_ = sink
}

func BenchmarkGeometricLog(b *testing.B) {
	g := New(1)
	l := math.Log1p(-0.001)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += g.GeometricLog(l)
	}
	_ = sink
}

func BenchmarkBinomial(b *testing.B) {
	g := New(1)
	cases := []struct {
		name string
		n    int64
		p    float64
	}{
		{"count-n64", 64, 0.24},
		{"count-n1000", 1000, 0.05},
		{"zigzag-n5000", 5000, 0.24},
		{"normal-n2e37", 1 << 37, 0.5},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += g.Binomial(tc.n, tc.p)
			}
			_ = sink
		})
	}
}

func BenchmarkBinomialFixed(b *testing.B) {
	g := New(1)
	cases := []struct {
		name string
		n    int64
		p    float64
	}{
		{"bernoulli-n8", 8, 0.24},
		{"bernoulli-n64", 64, 0.24},
		{"zigzag-n1000", 1000, 0.24},
		{"zigzag-n5000", 5000, 0.24},
	}
	for _, tc := range cases {
		thr := FixedThreshold(tc.p)
		b.Run(tc.name, func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += g.BinomialFixed(tc.n, tc.p, thr)
			}
			_ = sink
		})
	}
}
