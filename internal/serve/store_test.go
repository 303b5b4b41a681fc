package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"kronvalid/internal/distgen"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// TestCacheKeyNormalizesSpec pins the content-address argument's
// syntactic half: spec variants that parse to the same generator
// collapse to the same key, because the key hashes the round-tripped
// canonical Name(), not the user's spelling.
func TestCacheKeyNormalizesSpec(t *testing.T) {
	variants := []string{
		"ba:n=1000,d=4",
		"ba(n=1000;d=4)",
		"ba:d=4,n=1000",
		"ba:n=1000,d=4,seed=1",
	}
	want := ""
	for _, spec := range variants {
		g, err := model.New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		key := CacheKey(g.Name(), "binary")
		if want == "" {
			want = key
		} else if key != want {
			t.Errorf("spec %q: key %s, want %s (Name %q)", spec, key, want, g.Name())
		}
	}
	g, err := model.New("ba:n=1000,d=4,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(g.Name(), "binary") == want {
		t.Error("different seed produced the same content address")
	}
	if CacheKey(g.Name(), "tsv") == CacheKey(g.Name(), "binary") {
		t.Error("different formats produced the same content address")
	}
}

// stageEntry writes one complete sharded directory into the store's
// staging area and commits it, returning the entry.
func stageEntry(t *testing.T, s *Store, spec string, shards int, binary bool) *Entry {
	t.Helper()
	g, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlan(g, shards)
	format := "tsv"
	if binary {
		format = "binary"
	}
	key := CacheKey(pl.Name(), format)
	staged, err := s.TempDir("stage-" + key[:12])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distgen.WriteShards(context.Background(), staged, pl, nil,
		binary, stream.Options{}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Commit(key, staged)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStoreCommitAcquireRelease(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := stageEntry(t, s, "gnm:n=2000,m=6000,seed=3", 3, true)
	if e.Arcs() != 6000 {
		t.Fatalf("entry arcs = %d, want 6000", e.Arcs())
	}
	got, err := dirSize(s.objectsRoot())
	if err != nil {
		t.Fatal(err)
	}
	if got != e.Bytes() {
		t.Errorf("entry accounts %d bytes, directory holds %d", e.Bytes(), got)
	}
	a, ok := s.Acquire(e.Key())
	if !ok {
		t.Fatal("Acquire missed a committed key")
	}
	if a != e {
		t.Fatal("Acquire returned a different entry")
	}
	for _, p := range a.ShardPaths() {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("shard path %s: %v", p, err)
		}
	}
	s.Release(a)
	if _, ok := s.Acquire("no-such-key"); ok {
		t.Error("Acquire hit an uncommitted key")
	}
}

func TestStoreEvictionLRUSkipsPinned(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := stageEntry(t, s, "gnm:n=2000,m=6000,seed=1", 2, true)
	b := stageEntry(t, s, "gnm:n=2000,m=6000,seed=2", 2, true)
	// Pin a (also bumps it over b in the LRU) and shrink the budget so
	// the next commit must evict: b — the LRU unpinned entry — goes, a
	// survives because it is pinned and c because it is newest.
	pinned, ok := s.Acquire(a.Key())
	if !ok {
		t.Fatal("Acquire(a) missed")
	}
	s.mu.Lock()
	s.maxBytes = s.bytes + 1000 // room for nothing extra
	s.mu.Unlock()
	c := stageEntry(t, s, "gnm:n=2000,m=6000,seed=3", 2, true)
	if _, ok := s.Contains(b.Key()); ok {
		t.Error("LRU entry b survived an over-budget commit")
	}
	if _, ok := s.Contains(a.Key()); !ok {
		t.Error("pinned entry a was evicted")
	}
	if _, ok := s.Contains(c.Key()); !ok {
		t.Error("fresh entry c was evicted")
	}
	if _, err := os.Stat(filepath.Join(b.dir, distgen.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("evicted entry b still has a manifest: err=%v", err)
	}
	_, _, _, evictions := s.Stats()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	s.Release(pinned)
}

// TestStorePinDefersEviction pins an entry, drives the store far over
// budget, and checks the pin defers — not exempts — eviction: the entry
// stays indexed and intact while pinned (so an in-flight download never
// tears and a concurrent identical submission still hits), and the last
// release re-runs the sweep and settles the budget.
func TestStorePinDefersEviction(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := stageEntry(t, s, "gnm:n=2000,m=6000,seed=1", 2, true)
	pinned, _ := s.Acquire(a.Key())
	s.mu.Lock()
	s.maxBytes = 1 // everything is over budget
	s.mu.Unlock()
	b := stageEntry(t, s, "gnm:n=2000,m=6000,seed=2", 2, true)
	// b was evicted immediately (unpinned, over budget); a is pinned:
	// still indexed, files intact.
	if _, ok := s.Contains(b.Key()); ok {
		t.Error("unpinned entry b survived")
	}
	if _, ok := s.Contains(a.Key()); !ok {
		t.Error("pinned entry a fell out of the index")
	}
	for _, p := range pinned.ShardPaths() {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("pinned entry lost file %s: %v", p, err)
		}
	}
	s.Release(pinned)
	if _, ok := s.Contains(a.Key()); ok {
		t.Error("release did not re-run the eviction sweep")
	}
	if _, err := os.Stat(pinned.dir); !os.IsNotExist(err) {
		t.Errorf("evicted-on-release entry still on disk: err=%v", err)
	}
	if _, bytes, _, _ := s.Stats(); bytes != 0 {
		t.Errorf("resident bytes = %d after releasing everything over budget", bytes)
	}
}

// TestStoreRecovery reopens a cache directory and checks committed
// entries come back, while manifest-less directories (the abort
// contract's signature of a torn run) and staging leftovers are swept.
func TestStoreRecovery(t *testing.T) {
	root := t.TempDir()
	s, err := NewStore(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := stageEntry(t, s, "gnm:n=2000,m=6000,seed=9", 2, true)
	s.SetDigest(e, "feedc0de")

	// Simulate a torn eviction/abort: an object directory without a
	// manifest, plus a staging leftover from a crashed job.
	garbage := filepath.Join(s.objectsRoot(), "zz", "deadbeef")
	if err := os.MkdirAll(garbage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(garbage, "shard-000.bin"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(root, "tmp", "j-000042")
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}

	r, err := NewStore(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.Contains(e.Key())
	if !ok {
		t.Fatal("recovery lost the committed entry")
	}
	if got.Arcs() != e.Arcs() || got.Bytes() != e.Bytes() || got.Name() != e.Name() {
		t.Errorf("recovered entry differs: arcs %d/%d bytes %d/%d name %q/%q",
			got.Arcs(), e.Arcs(), got.Bytes(), e.Bytes(), got.Name(), e.Name())
	}
	if d := r.Digest(got); d != "feedc0de" {
		t.Errorf("recovered digest sidecar = %q, want feedc0de", d)
	}
	if _, err := os.Stat(garbage); !os.IsNotExist(err) {
		t.Errorf("manifest-less garbage survived recovery: err=%v", err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("staging leftover survived recovery: err=%v", err)
	}
}
