package kronvalid

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestModelKindsRegistered(t *testing.T) {
	kinds := ModelKinds()
	want := map[string]bool{
		"er": false, "gnm": false, "rmat": false, "chunglu": false,
		"rgg2d": false, "rgg3d": false, "ba": false, "rhg": false,
		"grid2d": false, "grid3d": false,
	}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("model kind %q not registered (have %v)", k, kinds)
		}
	}
}

// TestStreamModelDeterministicAcrossWorkerCounts is the acceptance
// invariant at the public surface: for every model kind, the serialized
// stream is byte-identical across P ∈ {1, 2, 4, 8} and feeds the
// one-pass CSR sink directly.
func TestStreamModelDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, spec := range []string{
		"er:n=3000,p=0.003,seed=42",
		"gnm:n=2000,m=12000,seed=6",
		"rmat:scale=11,edges=20000,seed=3",
		"chunglu:n=2500,dmax=50,seed=8",
		"rgg2d:n=2500,r=0.03,seed=12",
		"rgg3d:n=1000,r=0.1,seed=13",
		"ba:n=2500,d=4,seed=14",
		"rhg:n=2000,d=8,gamma=2.8,seed=15",
		"grid2d:x=50,y=40,p=0.6,wrap=true,seed=16",
		"grid3d:x=12,y=10,z=8,p=0.5,wrap=true,seed=17",
	} {
		g, err := NewGenerator(spec)
		if err != nil {
			t.Fatalf("NewGenerator(%q): %v", spec, err)
		}
		var want []byte
		for _, p := range []int{1, 2, 4, 8} {
			var buf bytes.Buffer
			n, err := Stream(context.Background(), ModelSource(g, p), NewBinaryArcSink(&buf), WithWorkers(p))
			if err != nil {
				t.Fatalf("%s P=%d: %v", spec, p, err)
			}
			if n == 0 {
				t.Fatalf("%s: empty stream", spec)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("%s: stream bytes differ at P=%d", spec, p)
			}
		}
		// Exact-count models must match their declared total.
		if exact := g.NumArcs(); exact >= 0 && int64(len(want))/16 != exact {
			t.Errorf("%s: stream has %d arcs, model declares %d", spec, len(want)/16, exact)
		}
	}
}

// TestModelCSRPathsDigestIdentical checks the two materialization paths
// agree for every model and worker count — the ingestion counterpart of
// stream byte-identity.
func TestModelCSRPathsDigestIdentical(t *testing.T) {
	g, err := NewGenerator("rmat:scale=10,edges=16384,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := ToCSR(ctx, ModelSource(g, 1), WithWorkers(1), WithTwoPass(false))
	if err != nil {
		t.Fatal(err)
	}
	want := CSRDigest(base)
	for _, p := range []int{1, 4, 8} {
		one, err := ToCSR(ctx, ModelSource(g, p), WithWorkers(p), WithTwoPass(false))
		if err != nil {
			t.Fatal(err)
		}
		two, err := ToCSR(ctx, ModelSource(g, p), WithWorkers(p))
		if err != nil {
			t.Fatal(err)
		}
		if d := CSRDigest(one); d != want {
			t.Errorf("P=%d: one-pass digest %s != %s", p, d, want)
		}
		if d := CSRDigest(two); d != want {
			t.Errorf("P=%d: two-pass digest %s != %s", p, d, want)
		}
	}
}

// TestWriteShardedModelRoundTrip writes a sharded model directory and
// checks manifest identity, per-shard counts, and that the concatenated
// shard files reproduce the canonical stream bytes.
func TestWriteShardedModelRoundTrip(t *testing.T) {
	g, err := NewGenerator("gnm:n=1200,m=9000,seed=77")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	m, err := WriteShards(ctx, dir, ModelSource(g, 4), WithBinary(true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != g.Name() {
		t.Errorf("manifest source %q != generator name %q", m.Source, g.Name())
	}
	if m.TotalArcs != 9000 {
		t.Errorf("manifest total arcs = %d, want 9000", m.TotalArcs)
	}
	back, err := ReadShardManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != m.Source || back.TotalArcs != m.TotalArcs {
		t.Error("re-read manifest differs")
	}
	var cat bytes.Buffer
	for _, s := range m.Shards {
		b, err := os.ReadFile(filepath.Join(dir, s.File))
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(b)
	}
	var want bytes.Buffer
	if _, err := Stream(ctx, ModelSource(g, 1), NewBinaryArcSink(&want), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cat.Bytes(), want.Bytes()) {
		t.Error("concatenated shard files differ from the canonical stream")
	}
	// The regenerated spec must reproduce the same stream.
	g2, err := NewGenerator(back.Source)
	if err != nil {
		t.Fatalf("NewGenerator(manifest source): %v", err)
	}
	var again bytes.Buffer
	if _, err := Stream(ctx, ModelSource(g2, 3), NewBinaryArcSink(&again), WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Error("manifest spec did not reproduce the stream")
	}
}

// TestParseGraph is ParseGraph's one test over the model registry: for
// one spec of every registered kind, the explicit graph is
// digest-identical to the symmetrized stream ParseSource streams at
// P ∈ {1, 2, 8}, an exact edge count is pinned where the kind has one,
// and a KaGen-form alias names the same graph. A kind with no case
// fails the test. Out-of-range parameters are errors.
func TestGNMPublicAPI(t *testing.T) {
	g, err := ParseGraph("gnm:n=150,m=900,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdgesUndirected() != 900 {
		t.Fatalf("GNM edges = %d, want 900", g.NumEdgesUndirected())
	}
}

func TestParseGraph(t *testing.T) {
	cases := map[string]struct {
		spec, alias string
		edges       int64
	}{
		"er":      {spec: "er:n=900,p=0.01,seed=7"},
		"gnm":     {spec: "gnm:n=150,m=900,seed=5", edges: 900},
		"rmat":    {spec: "rmat:scale=8,seed=1"}, // the Graph500 parameters are the defaults
		"chunglu": {spec: "chunglu:n=800,dmax=40,seed=3"},
		"rgg2d":   {spec: "rgg2d:n=800,r=0.06,seed=3", alias: "rgg2d(n=800;r=0.06;seed=3)"},
		"rgg3d":   {spec: "rgg3d:n=500,r=0.15,seed=3"},
		"ba":      {spec: "ba:n=800,m=3,seed=11", alias: "ba(n=800;d=3;seed=11)"},
		"rhg":     {spec: "rhg:n=600,d=8,gamma=2.6,seed=4", alias: "rhg(n=600;d=8;gamma=2.6;seed=4)"},
		"grid2d":  {spec: "grid2d:x=9,y=7,p=1,wrap=true,seed=1", edges: 126},     // 9×7 torus: degree 4
		"grid3d":  {spec: "grid3d:x=4,y=4,z=4,p=1,wrap=true,seed=1", edges: 192}, // 4³ torus: degree 6
	}
	ctx := context.Background()
	for _, kind := range ModelKinds() {
		c, ok := cases[kind]
		if !ok {
			t.Errorf("model kind %q has no ParseGraph case", kind)
			continue
		}
		t.Run(kind, func(t *testing.T) {
			g, err := ParseGraph(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !g.IsSymmetric() || g.HasAnyLoop() || g.NumEdgesUndirected() == 0 {
				t.Fatalf("%s: graph malformed or empty", c.spec)
			}
			if c.edges != 0 && g.NumEdgesUndirected() != c.edges {
				t.Errorf("%s: %d edges, want %d", c.spec, g.NumEdgesUndirected(), c.edges)
			}
			want := GraphDigest(g)
			for _, workers := range []int{1, 2, 8} {
				src, err := ParseSource(c.spec, workers)
				if err != nil {
					t.Fatal(err)
				}
				var edges []Edge
				if _, err := Stream(ctx, src, SinkFunc(func(batch []Arc) error {
					for _, a := range batch {
						edges = append(edges, Edge{U: int32(a.U), V: int32(a.V)})
					}
					return nil
				}), WithWorkers(workers)); err != nil {
					t.Fatal(err)
				}
				if got := GraphDigest(FromEdges(g.NumVertices(), edges, true)); got != want {
					t.Errorf("%s at P=%d: streamed digest %s, ParseGraph %s", c.spec, workers, got, want)
				}
			}
			if c.alias != "" {
				if a, err := ParseGraph(c.alias); err != nil || GraphDigest(a) != want {
					t.Errorf("alias %s: %v, or a graph other than %s's", c.alias, err, c.spec)
				}
			}
		})
	}
	for _, s := range []string{
		"rgg2d:n=100,r=-1,seed=1",      // negative radius
		"rhg:n=600,d=8,gamma=2,seed=4", // gamma must exceed 2
		"grid2d:x=0,y=5,p=1,seed=1",    // zero extent
		"gnm:n=10,m=46,seed=1",         // more edges than pairs
		"rmat:scale=8,seed=1,nosuch=1", // unknown key
	} {
		if g, err := ParseGraph(s); err == nil {
			t.Errorf("ParseGraph(%q) accepted: %d vertices", s, g.NumVertices())
		}
	}
}
