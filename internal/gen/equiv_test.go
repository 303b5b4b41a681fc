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

// The satellite contract: for every ported model, the legacy constructor
// must produce a digest-identical graph to the sharded stream at
// P ∈ {1, 2, 8} — the explicit and streamed paths are one code path.

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

func TestGNMLegacyStreamEquivalence(t *testing.T) {
	const n, m, seed = 700, 4200, 21
	want := gio.GraphDigest(GNM(n, m, seed))
	mg, err := model.NewGnm(n, m, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(n, streamArcs(t, mg, workers), nil))
		if got != want {
			t.Errorf("P=%d: streamed G(n,m) digest %s != legacy %s", workers, got, want)
		}
	}
}

func TestRMATLegacyStreamEquivalence(t *testing.T) {
	const scale, edges, seed = 10, 8192, 17
	want := gio.GraphDigest(RMAT(scale, edges, 0.57, 0.19, 0.19, 0.05, seed))
	mg, err := model.NewRMAT(scale, edges, 0.57, 0.19, 0.19, 0.05, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(1<<scale, streamArcs(t, mg, workers), nil))
		if got != want {
			t.Errorf("P=%d: streamed RMAT digest %s != legacy %s", workers, got, want)
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

func TestBarabasiAlbertLegacyStreamEquivalence(t *testing.T) {
	const n, m, seed = 800, 3, 11
	want := gio.GraphDigest(BarabasiAlbert(n, m, seed))
	mg, err := model.NewBarabasiAlbert(n, m, 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := gio.GraphDigest(graphFromArcs(n, streamArcs(t, mg, workers), nil))
		if got != want {
			t.Errorf("P=%d: streamed BA digest %s != legacy %s", workers, got, want)
		}
	}
}

// TestRGGByteIdentityAcrossWorkers is the spatial-model counterpart of
// the legacy-equivalence tests: there is no legacy RGG, so the pin is
// the serial chunk-by-chunk stream itself — the parallel pipeline must
// reproduce it arc for arc at P ∈ {1, 2, 8}, neighbor-cell
// recomputation included.
func TestRGGByteIdentityAcrossWorkers(t *testing.T) {
	for _, spec := range []string{
		"rgg2d:n=2000,r=0.04,seed=3",
		"rgg3d:n=900,r=0.12,seed=6",
	} {
		mg, err := model.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := model.Collect(mg)
		if len(want) == 0 {
			t.Fatalf("%s: empty stream, test is vacuous", spec)
		}
		for _, workers := range []int{1, 2, 8} {
			got := streamArcs(t, mg, workers)
			if len(got) != len(want) {
				t.Fatalf("%s P=%d: %d arcs, want %d", spec, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s P=%d: arc %d = %v, want %v", spec, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRHGGridByteIdentityAcrossWorkers extends the spatial pin to the
// hyperbolic and lattice kinds: the parallel pipeline must reproduce
// the serial chunk-by-chunk stream arc for arc, foreign-cell
// regeneration (rhg) and per-chunk skip walks (grid) included.
func TestRHGGridByteIdentityAcrossWorkers(t *testing.T) {
	for _, spec := range []string{
		"rhg:n=1500,d=8,gamma=2.7,seed=5",
		"grid2d:x=40,y=30,p=0.5,wrap=true,seed=6",
		"grid3d:x=10,y=9,z=8,p=0.6,wrap=true,seed=7",
	} {
		mg, err := model.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := model.Collect(mg)
		if len(want) == 0 {
			t.Fatalf("%s: empty stream, test is vacuous", spec)
		}
		for _, workers := range []int{1, 2, 8} {
			got := streamArcs(t, mg, workers)
			if len(got) != len(want) {
				t.Fatalf("%s P=%d: %d arcs, want %d", spec, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s P=%d: arc %d = %v, want %v", spec, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGNMProperties(t *testing.T) {
	g := GNM(200, 1500, 3)
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("GNM graph malformed")
	}
	if got := g.NumEdgesUndirected(); got != 1500 {
		t.Fatalf("GNM edges = %d, want exactly 1500", got)
	}
	if !g.Equal(GNM(200, 1500, 3)) {
		t.Error("same-seed GNM graphs differ")
	}
	if g.Equal(GNM(200, 1500, 4)) {
		t.Error("different-seed GNM graphs identical")
	}
}
