package distgen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

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
		m, err := WriteShards(context.Background(), dir, pl, Manifest{Model: g.Name()}, true, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Model != g.Name() {
			t.Errorf("manifest model = %q, want %q", m.Model, g.Name())
		}
		if m.Workers != pl.Shards() || len(m.Shards) != pl.Shards() {
			t.Errorf("manifest has %d shards, plan has %d", len(m.Shards), pl.Shards())
		}
		back, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if back.Model != g.Name() || back.TotalArcs != m.TotalArcs {
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
	m, err := WriteShards(context.Background(), dir, pl, Manifest{Model: g.Name()}, false, stream.Options{})
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

// TestKronManifestCarriesModel pins that the writer carries a Kronecker
// source's base identity — model "kron" plus factor digests — into the
// manifest.
func TestKronManifestCarriesModel(t *testing.T) {
	pl, _ := plan(t, 3)
	m := writeKron(t, t.TempDir(), pl, false)
	if m.Model != "kron" {
		t.Errorf("kron manifest model = %q", m.Model)
	}
	if m.FactorADigest == "" || m.FactorBDigest == "" {
		t.Error("kron manifest lost factor digests")
	}
}
