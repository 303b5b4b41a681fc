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
	if m.Model != g.Name() {
		t.Errorf("manifest model %q != generator name %q", m.Model, g.Name())
	}
	if m.TotalArcs != 9000 {
		t.Errorf("manifest total arcs = %d, want 9000", m.TotalArcs)
	}
	back, err := ReadShardManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != m.Model || back.TotalArcs != m.TotalArcs {
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
	g2, err := NewGenerator(back.Model)
	if err != nil {
		t.Fatalf("NewGenerator(manifest model): %v", err)
	}
	var again bytes.Buffer
	if _, err := Stream(ctx, ModelSource(g2, 3), NewBinaryArcSink(&again), WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Error("manifest spec did not reproduce the stream")
	}
}

func TestGNMPublicAPI(t *testing.T) {
	g := GNM(150, 900, 5)
	if g.NumEdgesUndirected() != 900 {
		t.Fatalf("GNM edges = %d, want 900", g.NumEdgesUndirected())
	}
}

func TestRGGPublicAPI(t *testing.T) {
	g, err := RGG2D(800, 0.06, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() || g.HasAnyLoop() || g.NumEdgesUndirected() == 0 {
		t.Fatal("RGG2D graph malformed or empty")
	}
	g3, err := RGG3D(500, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g3.IsSymmetric() || g3.NumEdgesUndirected() == 0 {
		t.Fatal("RGG3D graph malformed or empty")
	}
	if _, err := RGG2D(100, -1, 1); err == nil {
		t.Error("negative radius accepted")
	}
	// The KaGen-style spec alias reaches the same generator.
	mg, err := NewGenerator("rgg2d(n=800;r=0.06;seed=3)")
	if err != nil {
		t.Fatal(err)
	}
	if mg.Name() != "rgg2d:n=800,r=0.06,seed=3,chunks=64" {
		t.Errorf("alias spec resolved to %q", mg.Name())
	}
}

func TestRHGPublicAPI(t *testing.T) {
	g, err := RHG(600, 8, 2.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() || g.HasAnyLoop() || g.NumEdgesUndirected() == 0 {
		t.Fatal("RHG graph malformed or empty")
	}
	if _, err := RHG(600, 8, 2, 4); err == nil {
		t.Error("gamma = 2 accepted")
	}
	// The KaGen-style spec alias reaches the same generator.
	mg, err := NewGenerator("rhg(n=600;d=8;gamma=2.6;seed=4)")
	if err != nil {
		t.Fatal(err)
	}
	if mg.Name() != "rhg:n=600,d=8,gamma=2.6,seed=4,chunks=64" {
		t.Errorf("alias spec resolved to %q", mg.Name())
	}
}

func TestGridPublicAPI(t *testing.T) {
	g, err := Grid2D(9, 7, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full 9×7 torus: every vertex has degree 4, so 2·63 edges.
	if got := g.NumEdgesUndirected(); got != 126 {
		t.Fatalf("Grid2D torus edges = %d, want 126", got)
	}
	g3, err := Grid3D(4, 4, 4, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full 4³ torus: degree 6 everywhere, 3·64 edges.
	if got := g3.NumEdgesUndirected(); got != 192 {
		t.Fatalf("Grid3D torus edges = %d, want 192", got)
	}
	if _, err := Grid2D(0, 5, 1, false, 1); err == nil {
		t.Error("zero extent accepted")
	}
}
