package distgen

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/kron"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// shardFiles returns the names of dir's shard-* entries.
func shardFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// TestWriteShardsRerunCreatesNewInodes pins the mechanism of the re-run
// path, not just its speed: a predecessor's shard file is unlinked and
// replaced by a new inode, never truncated in place. The predecessor is
// held open across the re-run, so its inode number cannot be recycled
// and a reader that had it open still sees every byte.
func TestWriteShardsRerunCreatesNewInodes(t *testing.T) {
	pl, _ := plan(t, 3)
	dir := t.TempDir()
	first := writeKron(t, dir, pl, false)
	held := make([]*os.File, len(first.Shards))
	sizes := make([]int64, len(first.Shards))
	for i, s := range first.Shards {
		f, err := os.Open(filepath.Join(dir, s.File))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		held[i], sizes[i] = f, fi.Size()
	}
	second := writeKron(t, dir, pl, false)
	for i, s := range second.Shards {
		now, err := os.Stat(filepath.Join(dir, s.File))
		if err != nil {
			t.Fatal(err)
		}
		old, err := held[i].Stat()
		if err != nil {
			t.Fatal(err)
		}
		if os.SameFile(old, now) {
			t.Errorf("%s is the same inode after a re-run: the predecessor was rewritten in place", s.File)
		}
		if old.Size() != sizes[i] || now.Size() != sizes[i] {
			t.Errorf("%s: predecessor now %d bytes, successor %d, want %d for both", s.File, old.Size(), now.Size(), sizes[i])
		}
	}
}

// TestWriteShardsCancelledRerunLeavesNoPredecessor cancels a run into a
// directory that holds an earlier complete run: afterwards there is no
// manifest and no shard file of the earlier run — whatever is left is
// the cancelled run's own partial output.
func TestWriteShardsCancelledRerunLeavesNoPredecessor(t *testing.T) {
	g, err := model.New("er:n=3000,p=0.02,seed=7,chunks=16")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteShards(context.Background(), dir, model.NewPlan(g, 8), Manifest{Model: g.Name()}, true, stream.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := len(shardFiles(t, dir)); n != 8 {
		t.Fatalf("first run left %d shard files, want 8", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	_, werr := WriteShards(ctx, dir, model.NewPlan(g, 4), Manifest{Model: g.Name()}, false,
		stream.Options{BatchSize: 64, Progress: func(arcs, shards int64) {
			if calls++; calls == 3 {
				cancel()
			}
		}})
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", werr)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest exists after cancelled re-run (stat err: %v)", err)
	}
	for _, name := range shardFiles(t, dir) {
		if filepath.Ext(name) != ".tsv" {
			t.Errorf("%s of the earlier run survived a cancelled re-run", name)
		}
	}
}

// intruderSource plays a second writer: while the first shard to run
// generates — after the sweep, before the other shard's file is created
// — it creates the other shard's file.
type intruderSource struct {
	*Plan
	dir     string
	once    sync.Once
	planted string
}

func (s *intruderSource) EachShardBatch(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	s.once.Do(func() {
		s.planted = filepath.Join(s.dir, ShardFileName(1-w, false))
		os.WriteFile(s.planted, []byte("intruder"), 0o644)
	})
	s.Plan.EachShardBatch(w, buf, emit)
}

// TestWriteShardsRefusesShardFileOfAnotherWriter pins the exclusive
// create: a shard file that appears between the sweep and the create
// fails the run, and the other writer's bytes are not touched.
func TestWriteShardsRefusesShardFileOfAnotherWriter(t *testing.T) {
	p := kron.MustProduct(gen.WebGraph(40, 3, 0.6, 3), gen.HubCycle(5))
	dir := t.TempDir()
	src := &intruderSource{Plan: NewPlan(p, 2), dir: dir}
	_, err := WriteShards(context.Background(), dir, src, Manifest{Model: "kron"}, false, stream.Options{Workers: 1})
	if !errors.Is(err, fs.ErrExist) {
		t.Fatalf("err = %v, want a file-exists error for the planted shard", err)
	}
	if got, rerr := os.ReadFile(src.planted); rerr != nil || string(got) != "intruder" {
		t.Fatalf("the other writer's file holds %q (%v) after the refused run", got, rerr)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest exists after a refused run (stat err: %v)", err)
	}
}

// BenchmarkWriteShardsRerun is the traffic `krongen|gengen -out DIR`
// produces when re-run: one directory, filled before the clock starts,
// so every iteration replaces a predecessor's shard files.
func BenchmarkWriteShardsRerun(b *testing.B) {
	p := kron.MustProduct(gen.WebGraph(256, 4, 0.6, 1), gen.WebGraph(128, 4, 0.6, 2))
	pl := NewPlan(p, 2)
	for _, format := range []struct {
		name   string
		binary bool
	}{{"tsv", false}, {"binary", true}} {
		b.Run(format.name, func(b *testing.B) {
			dir := b.TempDir()
			write := func() *Manifest {
				m, err := WriteShards(context.Background(), dir, pl, Manifest{Model: "kron"}, format.binary, stream.Options{})
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			var bytes int64
			for _, s := range write().Shards {
				fi, err := os.Stat(filepath.Join(dir, s.File))
				if err != nil {
					b.Fatal(err)
				}
				bytes += fi.Size()
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}
