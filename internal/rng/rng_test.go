package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for SplitMix64 seeded with 1234567, from the
	// public-domain reference implementation by Sebastiano Vigna.
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	g := NewSplitMix64(1234567)
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Errorf("SplitMix64 output %d = %d, want %d", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMixStep(t *testing.T) {
	// Mix64 is the finalizer: SplitMix64{x}.Next() == Mix64(x + gamma).
	const gamma = 0x9e3779b97f4a7c15
	for _, x := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		g := SplitMix64{state: x}
		if got, want := g.Next(), Mix64(x+gamma); got != want {
			t.Errorf("Next(%d) = %d, want Mix64 %d", x, got, want)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same-seed generators diverged at step %d: %d vs %d", i, x, y)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 produced %d identical outputs out of 100", same)
	}
	// Same (seed, id) must reproduce.
	r0, r1 := NewStream(7, 3), NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if r0.Uint64() != r1.Uint64() {
			t.Fatalf("stream (7,3) not reproducible at step %d", i)
		}
	}
}

func TestInt64nRange(t *testing.T) {
	g := New(5)
	for _, n := range []int64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := g.Int64n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	New(1).Int64n(0)
}

func TestInt64nUniformity(t *testing.T) {
	// Chi-squared check over 8 buckets; threshold is generous (p ~ 1e-6).
	g := New(17)
	const buckets, samples = 8, 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[g.Int64n(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 45 { // df=7, far tail
		t.Errorf("chi-squared = %.1f indicates non-uniform Int64n: %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(23)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(3)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	g := New(11)
	const n, trials = 5, 50000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[g.Perm(n)[0]]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("Perm first element %d appeared %d times, expected about %.0f", i, c, expected)
		}
	}
}

func TestJumpChangesStateButStaysValid(t *testing.T) {
	g := New(42)
	h := New(42)
	h.Jump()
	same := 0
	for i := 0; i < 100; i++ {
		if g.Uint64() == h.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("jumped generator matched original %d/100 times", same)
	}
}

func TestQuickInt64nAlwaysInRange(t *testing.T) {
	f := func(seed uint64, nRaw int64) bool {
		n := nRaw%1000000 + 1
		if n <= 0 {
			n = 1 - n
		}
		if n == 0 {
			n = 1
		}
		g := New(seed)
		for i := 0; i < 20; i++ {
			v := g.Int64n(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkInt64n(b *testing.B) {
	g := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += g.Int64n(1000003)
	}
	_ = sink
}

// TestReseedMatchesNew checks Reseed reproduces New's state exactly —
// the property that lets retracing loops drop the per-step allocation
// without moving a draw.
func TestReseedMatchesNew(t *testing.T) {
	var g Xoshiro256
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 12345, ^uint64(0)} {
		g.Reseed(seed)
		if want := New(seed); g.s != want.s {
			t.Fatalf("Reseed(%d) state %v, New gives %v", seed, g.s, want.s)
		}
	}
	// Interleave with draws: Reseed must fully overwrite prior state.
	g.Reseed(5)
	g.Uint64()
	g.Reseed(5)
	if want := New(5); g.s != want.s {
		t.Fatal("Reseed after draws does not reset to the New state")
	}
}

// TestReseedStream2MatchesNewStream2 checks the in-place two-level
// stream derivation is bit-identical to NewStream2.
func TestReseedStream2MatchesNewStream2(t *testing.T) {
	var g Xoshiro256
	cases := [][3]uint64{
		{0, 0, 0},
		{42, 0x636c_7501, 7},
		{^uint64(0), 0x6261_0001, 1 << 40},
		{12345, 99, ^uint64(0)},
	}
	for _, c := range cases {
		g.ReseedStream2(c[0], c[1], c[2])
		if want := NewStream2(c[0], c[1], c[2]); g.s != want.s {
			t.Fatalf("ReseedStream2(%v) state %v, NewStream2 gives %v", c, g.s, want.s)
		}
	}
}

// TestStream2Int64nMatchesStream checks the one-word helper against
// ReseedStream2 followed by Int64n for random stream ids and bounds
// over [1, 2^63−1]: log-uniform bounds, where Lemire's first draw is
// almost always kept, and bounds in (2^62, 2^63), where the rejection
// test asks for another draw up to a third of the time and the helper
// must replay the stream. The draws the reference consumed are counted
// by stepping a copy of the fresh stream until the states agree, so the
// replay path is known to have been taken, with two and more draws.
func TestStream2Int64nMatchesStream(t *testing.T) {
	r := New(2025)
	bounds := []int64{1, 2, 3, 1<<62 + 1, 1<<63 - 1, 1<<63 - 2, 3 << 61}
	for i := 0; i < 20000; i++ {
		bounds = append(bounds, max(1, int64(r.Uint64()>>(1+r.Uint64()%63))))
		bounds = append(bounds, 1<<62+1+r.Int64n(1<<62-1))
	}
	consumed := map[int]int{}
	var g Xoshiro256
	for _, n := range bounds {
		seed, ns, id := r.Uint64(), r.Uint64()>>(r.Uint64()%64), r.Uint64()
		g.ReseedStream2(seed, ns, id)
		fresh := g
		want := g.Int64n(n)
		if got := Stream2Int64n(seed, ns, id, n); got != want {
			t.Fatalf("Stream2Int64n(%d, %d, %d, n=%d) = %d, stream gives %d", seed, ns, id, n, got, want)
		}
		draws := 0
		for fresh.s != g.s {
			fresh.Uint64()
			draws++
		}
		consumed[draws]++
	}
	if consumed[1] < len(bounds)/2 || consumed[2] < 1000 || consumed[3] < 100 {
		t.Fatalf("draws consumed per call %v: the replay path was not exercised enough", consumed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Stream2Int64n(n=0) did not panic")
		}
	}()
	Stream2Int64n(1, 2, 3, 0)
}
