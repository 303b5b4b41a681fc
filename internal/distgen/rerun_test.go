package distgen

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	if _, err := WriteShards(context.Background(), dir, model.NewPlan(g, 8), nil, true, stream.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := len(shardFiles(t, dir)); n != 8 {
		t.Fatalf("first run left %d shard files, want 8", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	_, werr := WriteShards(ctx, dir, model.NewPlan(g, 4), nil, false,
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
	_, err := WriteShards(context.Background(), dir, src, nil, false, stream.Options{Workers: 1})
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

// BenchmarkWriteShardsRerun is the traffic `gengen -out DIR`
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
				m, err := WriteShards(context.Background(), dir, pl, nil, format.binary, stream.Options{})
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

// staleDirs returns the names of dir's .stale-* entries.
func staleDirs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, staleDirPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestWriteShardsRemovesStaleDirOfKilledRun plays a run killed after
// its sweep moved the shard files aside but before they were removed:
// the next run removes that .stale-* directory along with its own.
func TestWriteShardsRemovesStaleDirOfKilledRun(t *testing.T) {
	pl, _ := plan(t, 3)
	dir := t.TempDir()
	writeKron(t, dir, pl, true)
	left := filepath.Join(dir, staleDirPrefix+"killed")
	if err := os.MkdirAll(filepath.Join(left, "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range shardFiles(t, dir) {
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(left, name)); err != nil {
			t.Fatal(err)
		}
	}
	writeKron(t, dir, pl, false)
	if got := staleDirs(t, dir); len(got) != 0 {
		t.Fatalf("%v remain after the next run", got)
	}
}

// TestWriteShardsLeavesNoStaleDir re-runs into a directory that holds a
// complete earlier run and ends the re-run three ways — success, a
// shard that cannot be created, a cancel: whichever way, WriteShards
// has removed the earlier run's files before it returns, and no
// .stale-* directory remains.
func TestWriteShardsLeavesNoStaleDir(t *testing.T) {
	g, err := model.New("er:n=3000,p=0.02,seed=7,chunks=16")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(dir string) error
		want error
	}{
		{"success", func(dir string) error {
			_, err := WriteShards(context.Background(), dir, model.NewPlan(g, 4), nil, false, stream.Options{})
			return err
		}, nil},
		{"failed shard", func(dir string) error {
			// A directory squatting on a shard name survives the sweep
			// and fails that shard's exclusive create.
			if err := os.Mkdir(filepath.Join(dir, ShardFileName(2, false)), 0o755); err != nil {
				t.Fatal(err)
			}
			_, err := WriteShards(context.Background(), dir, model.NewPlan(g, 4), nil, false, stream.Options{})
			return err
		}, fs.ErrExist},
		{"cancel", func(dir string) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls int
			_, err := WriteShards(ctx, dir, model.NewPlan(g, 4), nil, false,
				stream.Options{BatchSize: 64, Progress: func(arcs, shards int64) {
					if calls++; calls == 3 {
						cancel()
					}
				}})
			return err
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := WriteShards(context.Background(), dir, model.NewPlan(g, 8), nil, true, stream.Options{}); err != nil {
				t.Fatal(err)
			}
			err := tc.run(dir)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := staleDirs(t, dir); len(got) != 0 {
				t.Fatalf("%v remain after WriteShards returned", got)
			}
			for _, name := range shardFiles(t, dir) {
				if filepath.Ext(name) != ".tsv" {
					t.Errorf("%s of the earlier run survived", name)
				}
			}
		})
	}
}

// TestWriteShardsEmptySweepCreatesNothing: into a directory without
// shard files — a first run, or genserve's fresh staging directory —
// the sweep creates no .stale-* directory, and after the run the
// directory holds only what was there, the shard files and the
// manifest.
func TestWriteShardsEmptySweepCreatesNothing(t *testing.T) {
	pl, _ := plan(t, 3)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	swept, err := sweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Looked at before swept joins: a directory created and removed at
	// once would not show afterwards.
	if got := staleDirs(t, dir); len(got) != 0 {
		t.Fatalf("an empty sweep created %v", got)
	}
	if err := swept(); err != nil {
		t.Fatal(err)
	}
	m := writeKron(t, dir, pl, false)
	want := []string{"notes.txt", ManifestName}
	for _, s := range m.Shards {
		want = append(want, s.File)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
}
