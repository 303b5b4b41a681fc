package distgen

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// TestWriteShardedErrorCarriesShardIndex pins that a shard file that
// cannot be created surfaces the failing shard's index in the returned
// error: a pre-existing directory squats on shard 2's file name, so
// os.Create fails for exactly that shard.
func TestWriteShardedErrorCarriesShardIndex(t *testing.T) {
	g, err := model.New("er:n=400,p=0.03,seed=9,chunks=8")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	squat := filepath.Join(dir, ShardFileName(2, false))
	if err := os.MkdirAll(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	_, werr := WriteShards(context.Background(), dir, model.NewPlan(g, 4), nil, false, stream.Options{})
	if werr == nil {
		t.Fatal("write over a squatted shard path succeeded")
	}
	if !strings.Contains(werr.Error(), "shard 2") {
		t.Fatalf("error %q does not name the failing shard", werr)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("manifest exists after failed write (stat err: %v)", err)
	}
}

// TestWriteShardedCancelLeavesNoManifest cancels a sharded write
// mid-stream: the call must return ctx.Err() and the directory must not
// contain a manifest.json — the commit marker readers require — so the
// partial output cannot be mistaken for a complete stream.
func TestWriteShardedCancelLeavesNoManifest(t *testing.T) {
	g, err := model.New("er:n=3000,p=0.02,seed=7,chunks=16")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	_, werr := WriteShards(ctx, dir, model.NewPlan(g, 4), nil, false,
		stream.Options{BatchSize: 64, Progress: func(arcs, shards int64) {
			calls++
			if calls == 3 {
				cancel()
			}
		}})
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", werr)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("manifest exists after cancelled write (stat err: %v)", err)
	}
	// A rerun into the same directory must recover: full manifest, full
	// stream, stale bytes overwritten.
	m, err := WriteShards(context.Background(), dir, model.NewPlan(g, 4), nil, false, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalArcs <= 0 {
		t.Fatalf("recovery run wrote %d arcs", m.TotalArcs)
	}
}

// squatSource plants a directory on the manifest's final path while its
// last shard generates — after the writer has invalidated the previous
// manifest — so the commit rename is the step that fails.
type squatSource struct {
	*Plan
	dir string
}

func (s squatSource) EachShardBatch(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	if w == s.Shards()-1 {
		os.Mkdir(filepath.Join(s.dir, ManifestName), 0o755)
	}
	s.Plan.EachShardBatch(w, buf, emit)
}

// TestManifestCommitIsAtomic pins the commit protocol: the manifest is
// staged as manifest.json.tmp and renamed into place, so a successful
// run leaves no temp file and a run whose commit step fails leaves
// neither a manifest nor the temp file.
func TestManifestCommitIsAtomic(t *testing.T) {
	pl, _ := plan(t, 3)
	dir := t.TempDir()
	tmp := filepath.Join(dir, ManifestName+".tmp")
	writeKron(t, dir, pl, false)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp manifest survives a successful run (stat err: %v)", err)
	}

	_, werr := WriteShards(context.Background(), dir, squatSource{pl, dir}, nil, false, stream.Options{})
	if werr == nil {
		t.Fatal("commit over a squatted manifest path succeeded")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp manifest survives a failed commit (stat err: %v)", err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("a manifest is readable after a failed commit")
	}
}

// TestManifestCarriesSourceAndExtra pins the uniform Source identity and
// the Extra annotation round trip through the manifest.
func TestManifestCarriesSourceAndExtra(t *testing.T) {
	g, err := model.New("er:n=200,p=0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pl := model.NewPlan(g, 2)
	m, err := WriteShards(context.Background(), dir, pl,
		map[string]string{"experiment": "e1"}, false, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != g.Name() {
		t.Errorf("manifest source = %q, want %q", m.Source, g.Name())
	}
	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != g.Name() || back.Extra["experiment"] != "e1" {
		t.Errorf("re-read manifest lost source/extra: %+v", back)
	}
}

// TestKronPlanSourceContract pins the kron plan's Source-side methods:
// a stable digest-bearing Name and vertex ranges that tile the product's
// id space in order.
func TestKronPlanSourceContract(t *testing.T) {
	pl, p := plan(t, 3)
	if pl.Name() == "" || !strings.HasPrefix(pl.Name(), "kron(a=") {
		t.Errorf("kron plan name = %q", pl.Name())
	}
	var prev int64
	for w := 0; w < pl.Shards(); w++ {
		lo, hi := pl.VertexRange(w)
		if lo != prev || hi < lo {
			t.Fatalf("shard %d vertex range [%d,%d) does not continue from %d", w, lo, hi, prev)
		}
		prev = hi
	}
	if prev != p.NumVertices() {
		t.Fatalf("vertex ranges end at %d, product has %d vertices", prev, p.NumVertices())
	}
}
