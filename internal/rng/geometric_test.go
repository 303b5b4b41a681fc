package rng

import (
	"math"
	"testing"
)

// geometricRef is the inversion GeometricLog must reproduce, written out
// independently of the package: floor(log1p(-u)/log1mP) on u = k/2^53,
// capped at 2^62.
func geometricRef(k uint64, log1mP float64) int64 {
	y := math.Log1p(-float64(k)/(1<<53)) / log1mP
	if y >= 1<<62 {
		return 1 << 62
	}
	return int64(y)
}

// geometricLog is GeometricLog on the 53-bit draw k.
func geometricLog(k uint64, log1mP float64) int64 {
	if j, ok := geometricLogFast(k, log1mP); ok {
		return j
	}
	return geometricLogRef(k, log1mP)
}

// geometricTestPs spans GeometricLog's range: always-success, the
// bench's grid and er densities, the sparse tails, and a p so small
// that every draw but k = 0 is capped.
var geometricTestPs = []float64{1, 0.8, 0.5, 0.05, 4e-4, 1e-6, 1e-12, 1e-300}

// TestGeometricLogMatchesReference checks the fast path where it is
// most likely to err: around every draw k at which the quotient crosses
// one of the first few hundred integers j, 1024 draws each side are
// compared exhaustively with the reference; a run of the stream itself
// covers the draws in between.
func TestGeometricLogMatchesReference(t *testing.T) {
	const kMax = 1<<53 - 1
	for _, p := range geometricTestPs {
		l := math.Log1p(-p)
		fast, window := 0, 0
		for j := 0; j < 300; j++ {
			// y(k) = log1p(-k/2^53)/l reaches j at u = -expm1(j·l).
			u := -math.Expm1(float64(j) * l)
			if math.IsNaN(u) {
				u = 0 // 0·(-Inf) at p = 1, j = 0
			}
			kc := int64(math.Min(u*(1<<53), kMax))
			for k := max(kc-1024, 0); k <= min(kc+1024, kMax); k++ {
				want := geometricRef(uint64(k), l)
				if got := geometricLog(uint64(k), l); got != want {
					t.Fatalf("p=%g k=%d (crossing j=%d): GeometricLog %d, reference %d", p, k, j, got, want)
				}
				if _, ok := geometricLogFast(uint64(k), l); ok {
					fast++
				}
				window++
			}
		}
		g, ref := New(7), New(7)
		for i := 0; i < 100000; i++ {
			want := geometricRef(ref.Uint64()>>11, l)
			if got := g.GeometricLog(l); got != want {
				t.Fatalf("p=%g draw %d: GeometricLog %d, reference %d", p, i, got, want)
			}
		}
		if g.s != ref.s {
			t.Fatalf("p=%g: GeometricLog consumed a different number of draws", p)
		}
		t.Logf("p=%g: fast path decided %d of %d crossing-window draws", p, fast, window)
	}
}

// TestGeometricLogFastPathCoverage guards the fast path's purpose: at
// the densities the generators run, nearly every draw must be decided
// without the reference's log1p.
func TestGeometricLogFastPathCoverage(t *testing.T) {
	for _, p := range []float64{0.8, 0.05, 4e-4, 1e-6} {
		l := math.Log1p(-p)
		g := New(3)
		slow := 0
		for i := 0; i < 100000; i++ {
			if _, ok := geometricLogFast(g.Uint64()>>11, l); !ok {
				slow++
			}
		}
		if slow > 10 {
			t.Errorf("p=%g: %d of 100000 draws fell back to the reference", p, slow)
		}
	}
}

// TestGeometricLogTable checks the premises of geometricLogFast's error
// band: at both ends of every bucket z - c is exact and
// |(z - c)·invc| < 2^-9, invc is 1/c and logc is math.Log(c).
func TestGeometricLogTable(t *testing.T) {
	for i, e := range logTable {
		c := math.Float64frombits(logOff + uint64(i)<<44 | 1<<43)
		first := math.Float64frombits(logOff + uint64(i)<<44)
		last := math.Float64frombits(logOff + uint64(i+1)<<44 - 1)
		for _, z := range []float64{first, last} {
			d := z - c
			if d+c != z {
				t.Errorf("bucket %d: z - c inexact at z = %v", i, z)
			}
			if r := math.Abs(d * e.invc); r >= 0x1p-9 {
				t.Errorf("bucket %d: |r| = %g at z = %v, not below 2^-9", i, r, z)
			}
		}
		if e.invc != 1/c || e.logc != math.Log(c) {
			t.Errorf("bucket %d: (invc, logc) = (%v, %v), want (1/%v, log %v)", i, e.invc, e.logc, c, c)
		}
	}
}

// FuzzGeometricLog compares GeometricLog with the reference on any
// 53-bit draw and any p, valid or not: outside (0, 1] the fast path must
// defer rather than guess.
func FuzzGeometricLog(f *testing.F) {
	for i, p := range geometricTestPs {
		f.Add(uint64(i)*0x9e3779b97f4a7c15, p)
	}
	f.Add(uint64(0), 0.0)
	f.Add(uint64(1<<53-1), -0.5)
	f.Fuzz(func(t *testing.T, k uint64, p float64) {
		k >>= 11
		l := math.Log1p(-p)
		if got, want := geometricLog(k, l), geometricRef(k, l); got != want {
			t.Fatalf("k=%d p=%g: GeometricLog %d, reference %d", k, p, got, want)
		}
	})
}
