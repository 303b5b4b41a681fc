package gen

import (
	"context"
	"testing"

	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// streamArcs collects a model's stream through the ordered parallel
// pipeline at the given worker count.
func streamArcs(t *testing.T, g model.Generator, workers int) []stream.Arc {
	t.Helper()
	var out []stream.Arc
	pl := model.NewPlan(g, workers)
	if _, err := stream.RunSource(context.Background(), pl, stream.FuncSink(func(batch []stream.Arc) error {
		out = append(out, batch...)
		return nil
	}), stream.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return out
}

// graphFromArcs symmetrizes a streamed arc list into an explicit graph,
// optionally relabeling through order (nil means identity).
func graphFromArcs(n int, arcs []stream.Arc, order []int32) *graph.Graph {
	edges := make([]graph.Edge, len(arcs))
	for i, a := range arcs {
		u, v := int32(a.U), int32(a.V)
		if order != nil {
			u, v = order[u], order[v]
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	return graph.FromEdges(n, edges, true)
}

// The two models with a Go constructor of their own here (ErdosRenyi
// clamps p, ChungLu takes a degree sequence no spec can spell) must
// produce a digest-identical graph to the sharded stream at
// P ∈ {1, 2, 8} — the explicit and streamed paths are one code path.
// Every other kind is reached by spec (kronvalid's TestParseGraph).

func TestErdosRenyiLegacyStreamEquivalence(t *testing.T) {
	const n, p, seed = 900, 0.01, 7
	want := gio.GraphDigest(ErdosRenyi(n, p, seed))
	mg, err := model.NewErdosRenyi(n, p, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(n, streamArcs(t, mg, workers), nil))
		if got != want {
			t.Errorf("P=%d: streamed ER digest %s != legacy %s", workers, got, want)
		}
	}
}

// G(n,m) has no constructor here any more; its explicit graph is the
// registry spec collected by FromModel, which must still match the
// sharded stream at every worker count.
func TestGNMLegacyStreamEquivalence(t *testing.T) {
	const n, m, seed = 700, 4200, 21
	want := gio.GraphDigest(fromSpec(t, "gnm:n=700,m=4200,seed=21"))
	mg, err := model.NewGnm(n, m, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(n, streamArcs(t, mg, workers), nil))
		if got != want {
			t.Errorf("P=%d: streamed G(n,m) digest %s != explicit %s", workers, got, want)
		}
	}
}

func TestChungLuLegacyStreamEquivalence(t *testing.T) {
	degrees := make([]int64, 800)
	for i := range degrees {
		degrees[i] = int64(2 + i%17)
	}
	degrees[0] = 200 // a hub, to exercise saturation and sorting
	const seed = 33
	want := gio.GraphDigest(ChungLu(degrees, seed))
	order := chungLuOrder(degrees)
	weights := make([]float64, len(degrees))
	for i, v := range order {
		weights[i] = float64(degrees[v])
	}
	mg, err := model.NewChungLu(weights, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(len(degrees), streamArcs(t, mg, workers), order))
		if got != want {
			t.Errorf("P=%d: streamed ChungLu digest %s != legacy %s", workers, got, want)
		}
	}
}

// sameAsStream checks the contract of FromModel for one spec: the
// explicit graph is digest-identical to the symmetrized parallel stream
// at P ∈ {1, 2, 8}, and that stream is arc for arc the serial
// chunk-by-chunk one.
func sameAsStream(t *testing.T, spec string) {
	t.Helper()
	mg, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.Collect(mg)
	if len(serial) == 0 {
		t.Fatalf("%s: empty stream, test is vacuous", spec)
	}
	explicit, err := FromModel(mg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := gio.GraphDigest(explicit)
	for _, workers := range []int{1, 2, 8} {
		got := streamArcs(t, mg, workers)
		if len(got) != len(serial) {
			t.Fatalf("%s P=%d: %d arcs, want %d", spec, workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("%s P=%d: arc %d = %v, want %v", spec, workers, i, got[i], serial[i])
			}
		}
		if d := gio.GraphDigest(graphFromArcs(int(mg.NumVertices()), got, nil)); d != want {
			t.Errorf("%s P=%d: streamed digest %s != FromModel %s", spec, workers, d, want)
		}
	}
}

// TestRGGByteIdentityAcrossWorkers is the spatial-model counterpart of
// the legacy-equivalence tests: the kinds with no Go constructor of
// their own in this package are pinned through FromModel, neighbor-cell
// recomputation included.
func TestRGGByteIdentityAcrossWorkers(t *testing.T) {
	sameAsStream(t, "rgg2d:n=2000,r=0.04,seed=3")
	sameAsStream(t, "rgg3d:n=900,r=0.12,seed=6")
}

// TestRHGGridByteIdentityAcrossWorkers extends the spatial pin to the
// hyperbolic and lattice kinds: foreign-cell regeneration (rhg) and
// per-chunk skip walks (grid) included.
func TestRHGGridByteIdentityAcrossWorkers(t *testing.T) {
	sameAsStream(t, "rhg:n=1500,d=8,gamma=2.7,seed=5")
	sameAsStream(t, "grid2d:x=40,y=30,p=0.5,wrap=true,seed=6")
	sameAsStream(t, "grid3d:x=10,y=9,z=8,p=0.6,wrap=true,seed=7")
}

// TestFromModelSizeGuard covers both halves of the explicit-graph cap:
// a size the generator declares is refused before generation, and a
// random count aborts collection as soon as it passes the limit.
func TestFromModelSizeGuard(t *testing.T) {
	for _, spec := range []string{
		"gnm:n=300000,m=4000000000", // exact count over the cap
		"rmat:scale=26",             // edge budget over the cap
		"rmat:scale=31,edges=10",    // vertex ids past int32
	} {
		if g, err := FromModel(model.New(spec)); err == nil {
			t.Errorf("%s: materialized a %d-vertex graph", spec, g.NumVertices())
		}
	}
	mg, err := model.New("er:n=2000,p=0.5,seed=1") // ~10^6 arcs, count random
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	counting := countingGenerator{Generator: mg, emitted: &emitted}
	if _, err := materialize(counting, 5000, nil); err == nil {
		t.Error("running count past the limit accepted")
	}
	if emitted > 5000+2*stream.DefaultBatchSize {
		t.Errorf("collection ran on for %d arcs past a 5000-arc limit", emitted)
	}
	if _, err := materialize(mg, 1<<21, nil); err != nil {
		t.Errorf("under the limit: %v", err)
	}
}

// countingGenerator counts the arcs its worker hands to emit, to show
// that materialize stops the generator rather than discarding output.
type countingGenerator struct {
	model.Generator
	emitted *int
}

func (c countingGenerator) NewRun() stream.GenFactory {
	newWorker := c.Generator.NewRun()
	return func() stream.ShardGen {
		w := newWorker()
		return func(chunk int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
			w(chunk, buf, func(full []stream.Arc) []stream.Arc {
				*c.emitted += len(full)
				return emit(full)
			})
		}
	}
}

// fromSpec collects a registered model spec's graph.
func fromSpec(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := FromModel(model.New(spec))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGNMProperties(t *testing.T) {
	g := fromSpec(t, "gnm:n=200,m=1500,seed=3")
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("GNM graph malformed")
	}
	if got := g.NumEdgesUndirected(); got != 1500 {
		t.Fatalf("GNM edges = %d, want exactly 1500", got)
	}
	if !g.Equal(fromSpec(t, "gnm:n=200,m=1500,seed=3")) {
		t.Error("same-seed GNM graphs differ")
	}
	if g.Equal(fromSpec(t, "gnm:n=200,m=1500,seed=4")) {
		t.Error("different-seed GNM graphs identical")
	}
}
