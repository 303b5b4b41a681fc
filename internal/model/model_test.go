package model

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"kronvalid/internal/csr"
	"kronvalid/internal/stream"
)

// collect streams every shard of a plan through the ordered parallel
// pipeline with the given worker count and returns the arcs the sink
// observed.
func collect(t *testing.T, g Generator, shards, workers int) []stream.Arc {
	t.Helper()
	var out []stream.Arc
	pl := NewPlan(g, shards)
	n, err := stream.RunSource(context.Background(), pl, stream.FuncSink(func(batch []stream.Arc) error {
		out = append(out, batch...)
		return nil
	}), stream.Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: RunSource: %v", g.Name(), err)
	}
	if n != int64(len(out)) {
		t.Fatalf("%s: RunSource reported %d arcs, sink saw %d", g.Name(), n, len(out))
	}
	return out
}

func sameArcs(a, b []stream.Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var testSpecs = []string{
	"er:n=2000,p=0.004,seed=42",
	"er:n=500,p=0.05,seed=7,chunks=17",
	"gnm:n=1500,m=9000,seed=11",
	"rmat:scale=11,edges=16384,seed=13",
	"chunglu:n=3000,dmax=60,gamma=2.4,seed=5",
	"rgg2d:n=2500,r=0.03,seed=9",
	"rgg3d:n=1200,r=0.09,seed=4,chunks=21",
	"ba:n=2000,d=3,seed=15",
	"ba:n=900,d=5,s0=12,seed=2,chunks=11",
	"rhg:n=3000,d=8,gamma=2.9,seed=6",
	"rhg:n=1500,d=6,gamma=2.2,seed=3,chunks=19",
	"grid2d:x=60,y=45,p=0.7,wrap=true,seed=8",
	"grid3d:x=12,y=9,z=14,p=0.5,wrap=true,seed=2,chunks=9",
}

// TestByteIdentityAcrossShardAndWorkerCounts is the paper's central
// invariant applied to every registered random model: the concatenated
// shard stream must be identical for every shard count and every worker
// count, and must equal the serial chunk-by-chunk stream.
func TestByteIdentityAcrossShardAndWorkerCounts(t *testing.T) {
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		want := Collect(g)
		if len(want) == 0 {
			t.Fatalf("%s: empty stream, test is vacuous", spec)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, 4} {
				got := collect(t, g, shards, workers)
				if !sameArcs(want, got) {
					t.Errorf("%s: stream at shards=%d workers=%d differs from serial stream (%d vs %d arcs)",
						spec, shards, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestStreamsAreCanonical checks the chunk contract: strictly
// increasing lexicographic order (hence duplicate-free), vertex ids in
// range, and sources confined to the owning chunk's range.
func TestStreamsAreCanonical(t *testing.T) {
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var dedup stream.DedupCheckSink
		pl := NewPlan(g, 1)
		if _, err := stream.RunSource(context.Background(), pl, &dedup, stream.Options{Workers: 1}); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		n := g.NumVertices()
		buf := make([]stream.Arc, 0, 512)
		gen := g.NewWorker()
		for c := 0; c < g.Chunks(); c++ {
			lo, hi := g.ChunkRange(c)
			gen(c, buf, func(full []stream.Arc) []stream.Arc {
				for _, a := range full {
					if a.U < lo || a.U >= hi {
						t.Fatalf("%s: chunk %d emitted source %d outside [%d,%d)", spec, c, a.U, lo, hi)
					}
					if a.V < 0 || a.V >= n {
						t.Fatalf("%s: chunk %d emitted target %d outside [0,%d)", spec, c, a.V, n)
					}
				}
				return full[:0]
			})
		}
	}
}

// TestChunkRangesPartition checks that chunk vertex ranges are
// non-decreasing and disjoint, and that plans preserve them per shard.
func TestChunkRangesPartition(t *testing.T) {
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(0)
		for c := 0; c < g.Chunks(); c++ {
			lo, hi := g.ChunkRange(c)
			if lo < prev || hi < lo {
				t.Fatalf("%s: chunk %d range [%d,%d) overlaps or regresses (prev hi %d)", spec, c, lo, hi, prev)
			}
			prev = hi
		}
		for _, shards := range []int{1, 3, 8} {
			pl := NewPlan(g, shards)
			prev = 0
			for w := 0; w < pl.Shards(); w++ {
				lo, hi := pl.VertexRange(w)
				if lo < prev || hi < lo {
					t.Fatalf("%s: shard %d/%d range [%d,%d) overlaps or regresses", spec, w, shards, lo, hi)
				}
				prev = hi
			}
		}
	}
}

func TestErdosRenyiStatistics(t *testing.T) {
	g, err := NewErdosRenyi(2000, 0.004, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	arcs := Collect(g)
	for _, a := range arcs {
		if a.U >= a.V {
			t.Fatalf("non-upper-triangle arc (%d,%d)", a.U, a.V)
		}
	}
	want := g.ExpectedArcs() // ≈ 7996
	sd := math.Sqrt(want * (1 - 0.004))
	if got := float64(len(arcs)); math.Abs(got-want) > 6*sd {
		t.Errorf("ER edge count %d deviates from expectation %.0f by more than 6σ", len(arcs), want)
	}
	// Different seeds must differ.
	g2, _ := NewErdosRenyi(2000, 0.004, 43, 0)
	if sameArcs(arcs, Collect(g2)) {
		t.Error("different seeds produced identical ER streams")
	}
}

func TestErdosRenyiDense(t *testing.T) {
	// p = 1 must yield the complete graph via the dense path.
	g, err := NewErdosRenyi(80, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(Collect(g)), 80*79/2; got != want {
		t.Fatalf("p=1 emitted %d arcs, want %d", got, want)
	}
	// p = 0 must yield nothing.
	g0, _ := NewErdosRenyi(80, 0, 1, 7)
	if got := len(Collect(g0)); got != 0 {
		t.Fatalf("p=0 emitted %d arcs", got)
	}
}

func TestGnmExactCount(t *testing.T) {
	for _, tc := range []struct {
		n, m   int64
		chunks int
	}{
		{1000, 0, 8}, {1000, 5000, 8}, {100, 100 * 99 / 2, 8},
		{100, 100 * 99 / 2, 1}, {300, 40000, 5}, {2, 1, 4},
	} {
		g, err := NewGnm(tc.n, tc.m, 99, tc.chunks)
		if err != nil {
			t.Fatalf("NewGnm(%d,%d): %v", tc.n, tc.m, err)
		}
		if g.NumArcs() != tc.m {
			t.Fatalf("NumArcs = %d, want %d", g.NumArcs(), tc.m)
		}
		var split int64
		for c := 0; c < g.Chunks(); c++ {
			a := g.ChunkArcs(c)
			if a < 0 {
				t.Fatalf("gnm chunk %d count unknown", c)
			}
			split += a
		}
		if split != tc.m {
			t.Fatalf("binomial split sums to %d, want %d", split, tc.m)
		}
		arcs := Collect(g)
		if int64(len(arcs)) != tc.m {
			t.Fatalf("G(%d,%d) emitted %d arcs", tc.n, tc.m, len(arcs))
		}
		seen := map[stream.Arc]bool{}
		for _, a := range arcs {
			if a.U >= a.V || a.U < 0 || a.V >= tc.n {
				t.Fatalf("invalid pair (%d,%d)", a.U, a.V)
			}
			if seen[a] {
				t.Fatalf("duplicate pair (%d,%d)", a.U, a.V)
			}
			seen[a] = true
		}
		// Exact per-shard sizes must match what the stream delivers.
		pl := NewPlan(g, 4)
		for w := 0; w < pl.Shards(); w++ {
			want := pl.ShardSize(w)
			var got int64
			pl.EachShardBatch(w, nil, func(full []stream.Arc) []stream.Arc {
				got += int64(len(full))
				return full[:0]
			})
			if want != got {
				t.Fatalf("G(%d,%d) shard %d: ShardSize %d but stream emitted %d", tc.n, tc.m, w, want, got)
			}
		}
	}
}

func TestGnmRejectsOutOfRange(t *testing.T) {
	if _, err := NewGnm(10, 46, 1, 0); err == nil {
		t.Error("m > pairs accepted")
	}
	if _, err := NewGnm(10, -1, 1, 0); err == nil {
		t.Error("negative m accepted")
	}
	if _, err := NewErdosRenyi(10, 1.5, 1, 0); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := NewErdosRenyi(10, math.NaN(), 1, 0); err == nil {
		t.Error("NaN p accepted")
	}
	if _, err := NewRMAT(0, 5, .25, .25, .25, .25, 1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := NewRMAT(5, 5, 0, 0, 0, 0, 1, 0); err == nil {
		t.Error("zero probabilities accepted")
	}
	if _, err := NewChungLu([]float64{1, 2}, 1, 0); err == nil {
		t.Error("increasing weights accepted")
	}
	if _, err := NewChungLu([]float64{2, math.NaN()}, 1, 0); err == nil {
		t.Error("NaN weight accepted")
	}
	// Oversized specs must be construction errors, never allocation
	// panics reachable from CLI input.
	if _, err := New("chunglu:n=99999999999999999"); err == nil {
		t.Error("oversized chunglu n accepted")
	}
	if _, err := New("rmat:scale=20,edges=9000000000000000000"); err == nil {
		t.Error("oversized rmat edge budget accepted")
	}
	if _, err := New("er:n=99999999999999999,p=0.1"); err == nil {
		t.Error("oversized er n accepted")
	}
}

func TestRMATProperties(t *testing.T) {
	g, err := NewRMAT(11, 16384, 0.57, 0.19, 0.19, 0.05, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	if n != 2048 {
		t.Fatalf("NumVertices = %d", n)
	}
	arcs := Collect(g)
	if len(arcs) == 0 || int64(len(arcs)) > 16384 {
		t.Fatalf("RMAT emitted %d arcs, want in (0, 16384]", len(arcs))
	}
	var low, high int64
	for _, a := range arcs {
		if a.U == a.V {
			t.Fatalf("self loop at %d", a.U)
		}
		if a.U < n/2 {
			low++
		} else {
			high++
		}
	}
	if low <= high {
		t.Errorf("RMAT source mass not skewed: low=%d high=%d", low, high)
	}
	// The split budgets must sum to the raw edge count.
	var budget int64
	for q := 0; q < g.Chunks(); q++ {
		budget += g.chunkEdgeBudget(q)
	}
	if budget != 16384 {
		t.Errorf("chunk edge budgets sum to %d, want 16384", budget)
	}
}

func TestChungLuStatistics(t *testing.T) {
	// Regular weights d: expected edges ≈ n·d/2.
	w := make([]float64, 800)
	for i := range w {
		w[i] = 10
	}
	g, err := NewChungLu(w, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := len(Collect(g))
	if m < 3000 || m > 5000 {
		t.Errorf("ChungLu regular-10 edges = %d, expected near 4000", m)
	}
	// Zero weights: no edges, no panic.
	gz, err := NewChungLu(make([]float64, 50), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(Collect(gz)) != 0 {
		t.Error("zero-weight ChungLu emitted edges")
	}
	// Empty.
	ge, err := NewChungLu(nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(Collect(ge)) != 0 || ge.NumVertices() != 0 {
		t.Error("empty ChungLu wrong")
	}
}

// TestCSRPathsAgree builds every model's graph twice — one-pass ordered
// sink and two-pass parallel builder — at several worker counts and
// requires identical CSR.
func TestCSRPathsAgree(t *testing.T) {
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		sink := csr.NewSink(g.NumVertices(), 0)
		pl := NewPlan(g, 4)
		if _, err := stream.RunSource(context.Background(), pl, sink, stream.Options{Workers: 4}); err != nil {
			t.Fatalf("%s: ordered sink: %v", spec, err)
		}
		want, err := sink.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 8} {
			pl := NewPlan(g, shards)
			got, err := csr.BuildContext(context.Background(), csr.Source{
				NumVertices: pl.NumVertices(),
				NumArcs:     pl.TotalArcs(),
				Shards:      pl.Shards(),
				VertexRange: pl.VertexRange,
				Generate:    pl.EachShardBatch,
			}, stream.Options{Workers: shards})
			if err != nil {
				t.Fatalf("%s: two-pass build shards=%d: %v", spec, shards, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: two-pass CSR at shards=%d differs from ordered sink", spec, shards)
			}
		}
	}
}

func TestRegistrySpecs(t *testing.T) {
	if _, err := New("nosuch:n=3"); err == nil || !strings.Contains(err.Error(), "unknown model kind") {
		t.Errorf("unknown kind error = %v", err)
	}
	if _, err := New("er:n=10,pp=0.5"); err == nil || !strings.Contains(err.Error(), "unknown parameters") {
		t.Errorf("unknown key error = %v", err)
	}
	if _, err := New("er:n=10,junk"); err == nil {
		t.Error("malformed parameter accepted")
	}
	if _, err := New("er:n=10,n=20,p=0.5"); err == nil || !strings.Contains(err.Error(), "duplicate parameter") {
		t.Errorf("duplicate key error = %v", err)
	}
	for _, bad := range []string{"er:n=10,seed=-1", "er:n=10,chunks=x"} {
		if _, err := New(bad); err == nil || !strings.HasPrefix(err.Error(), "model: parameter") {
			t.Errorf("%s: error = %v", bad, err)
		}
	}
	if _, err := New("gnm:n=10"); err == nil {
		t.Error("gnm without m accepted")
	}
	kinds := Kinds()
	for _, want := range []string{"er", "gnm", "rmat", "chunglu", "rgg2d", "rgg3d", "ba", "rhg", "grid2d", "grid3d"} {
		found := false
		for _, k := range kinds {
			found = found || k == want
		}
		if !found {
			t.Errorf("kind %q not registered (have %v)", want, kinds)
		}
	}
}

// TestKindsSortedEverywhere pins the satellite contract that model
// kinds surface deterministically: Kinds() is sorted, and the
// unknown-kind error message lists them in that same sorted order (CLI
// help text and CI logs both print these).
func TestKindsSortedEverywhere(t *testing.T) {
	kinds := Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Fatalf("Kinds() not sorted: %v", kinds)
	}
	_, err := New("nosuchmodel:n=1")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if want := strings.Join(kinds, ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-kind error %q does not list the sorted kinds %q", err, want)
	}
}

// TestDependenciesContract checks the declared cross-chunk reads for
// every registered test spec: dependence-free models must declare
// nothing, and every declaration must be sorted, duplicate-free, and
// outside the chunk's own id space.
func TestDependenciesContract(t *testing.T) {
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, isRGG := g.(*RGG)
		_, isRHG := g.(*RHG)
		spatial := isRGG || isRHG
		for c := 0; c < g.Chunks(); c++ {
			deps := g.Dependencies(c)
			if !spatial && deps != nil {
				t.Fatalf("%s: chunk %d declares dependencies %v; only the cell-grid models recompute foreign cells", spec, c, deps)
			}
			for i := 1; i < len(deps); i++ {
				if deps[i-1] >= deps[i] {
					t.Fatalf("%s: chunk %d dependencies not strictly ascending: %v", spec, c, deps)
				}
			}
		}
	}
}

// TestNameRoundTrips requires New(g.Name()) to rebuild a generator with
// the identical stream — names are the manifest's reproducibility
// contract.
func TestNameRoundTrips(t *testing.T) {
	covered := map[string]bool{}
	for _, spec := range testSpecs {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		kind, _, _ := strings.Cut(g.Name(), ":")
		covered[kind] = true
		g2, err := New(g.Name())
		if err != nil {
			t.Fatalf("New(%q): %v", g.Name(), err)
		}
		if g2.Name() != g.Name() {
			t.Errorf("name not fixed under round trip: %q -> %q", g.Name(), g2.Name())
		}
		if !sameArcs(Collect(g), Collect(g2)) {
			t.Errorf("%s: round-tripped generator streams different arcs", g.Name())
		}
	}
	for _, kind := range Kinds() {
		if !covered[kind] {
			t.Errorf("registered kind %q has no entry in testSpecs", kind)
		}
	}
}

// TestPlanBalancesHugePairSpace pins the overflow regression: at the
// maximum supported n the total chunk weight (pair count) approaches
// 2^63, and the shard-target arithmetic must not wrap — every requested
// shard must materialize with a sane share of the chunks.
func TestPlanBalancesHugePairSpace(t *testing.T) {
	g, err := NewErdosRenyi(4_000_000_000, 1e-12, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(g, 8)
	if pl.Shards() != 8 {
		t.Fatalf("plan produced %d shards, want 8", pl.Shards())
	}
	for w := 0; w < pl.Shards(); w++ {
		r := pl.ranges[w]
		if n := r[1] - r[0]; n < 1 || n > g.Chunks()/2 {
			t.Fatalf("shard %d owns %d of %d chunks — partition collapsed", w, n, g.Chunks())
		}
	}
}

// TestWorkerCountNeverConsumesRandomness pins the design rule that the
// plan only assigns chunks: a plan for any shard count must leave the
// underlying chunk streams untouched, which TestByteIdentity checks via
// bytes; here we check the plan covers every chunk exactly once.
func TestWorkerCountNeverConsumesRandomness(t *testing.T) {
	g, err := New("er:n=300,p=0.05,seed=3,chunks=13")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5, 13, 50} {
		pl := NewPlan(g, shards)
		next := 0
		for w := 0; w < pl.Shards(); w++ {
			r := pl.ranges[w]
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("shards=%d: shard %d covers chunks [%d,%d), want start %d", shards, w, r[0], r[1], next)
			}
			next = r[1]
		}
		if next != g.Chunks() {
			t.Fatalf("shards=%d: plan covers %d chunks, generator has %d", shards, next, g.Chunks())
		}
		if pl.Shards() > shards {
			t.Fatalf("plan produced %d shards for request %d", pl.Shards(), shards)
		}
	}
}
