package distgen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"kronvalid/internal/gio"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// catShards concatenates a directory's shard files in manifest order.
func catShards(t *testing.T, dir string, m *Manifest) []byte {
	t.Helper()
	var all bytes.Buffer
	for _, s := range m.Shards {
		b, err := os.ReadFile(filepath.Join(dir, s.File))
		if err != nil {
			t.Fatal(err)
		}
		all.Write(b)
	}
	return all.Bytes()
}

// TestWriteShardedSourceModel drives the generalized writer with a
// model-layer plan: the manifest must identify the model, per-shard
// counts must sum to the stream, and the concatenated bytes must be
// identical for every shard count — the same invariant the Kronecker
// path has always had, now generator-agnostic.
func TestWriteShardedSourceModel(t *testing.T) {
	g, err := model.New("er:n=400,p=0.03,seed=9,chunks=11")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, shards := range []int{1, 3, 8} {
		dir := t.TempDir()
		pl := model.NewPlan(g, shards)
		m, err := WriteShards(context.Background(), dir, pl, nil, true, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Source != g.Name() {
			t.Errorf("manifest source = %q, want %q", m.Source, g.Name())
		}
		if m.Workers != pl.Shards() || len(m.Shards) != pl.Shards() {
			t.Errorf("manifest has %d shards, plan has %d", len(m.Shards), pl.Shards())
		}
		back, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if back.Source != g.Name() || back.TotalArcs != m.TotalArcs {
			t.Error("re-read manifest differs")
		}
		got := catShards(t, dir, m)
		if int64(len(got)) != 16*m.TotalArcs {
			t.Fatalf("shard bytes = %d, manifest declares %d arcs", len(got), m.TotalArcs)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Errorf("shards=%d: concatenated bytes differ from shards=1", shards)
		}
	}
}

// TestWriteShardedSourceExactCounts checks that a source with exact
// per-shard sizes (G(n,m)) is verified against what was actually
// written.
func TestWriteShardedSourceExactCounts(t *testing.T) {
	g, err := model.New("gnm:n=300,m=2000,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pl := model.NewPlan(g, 4)
	m, err := WriteShards(context.Background(), dir, pl, nil, false, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalArcs != 2000 {
		t.Fatalf("manifest total = %d, want 2000", m.TotalArcs)
	}
	for w, s := range m.Shards {
		if want := pl.ShardSize(w); want != s.Arcs {
			t.Errorf("shard %d: manifest %d arcs, plan says %d", w, s.Arcs, want)
		}
	}
}

// TestKronManifestCarriesSource pins that the writer records a
// Kronecker source's name, the spec set by Named or else the factor
// digests, as the manifest's one identity field.
func TestKronManifestCarriesSource(t *testing.T) {
	pl, p := plan(t, 3)
	m := writeKron(t, t.TempDir(), pl, false)
	want := "kron(a=" + gio.GraphDigest(p.Factors[0]) + ",b=" + gio.GraphDigest(p.Factors[1]) + ")"
	if m.Source != want {
		t.Errorf("kron manifest source = %q, want %q", m.Source, want)
	}
	const spec = "kron(a=web:n=40,m=3,pt=0.6,seed=3;b=hubcycle:c=5)"
	if m := writeKron(t, t.TempDir(), pl.Named(spec), false); m.Source != spec {
		t.Errorf("named kron manifest source = %q, want %q", m.Source, spec)
	}
}
