package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"kronvalid/internal/distgen"
)

// CacheKey is the content address of one canonical arc stream in one
// serialization format: sha256 over (format, Name()). Name() is sound as
// an address because generation is deterministic — a spec string fully
// reproduces every byte of every shard — and canonical: model.New
// round-trips a spec through its parsed parameters, so syntactic
// variants of one generator ("ba(n=10;d=4)" vs the normalized
// "ba:n=10,d=4,seed=1,chunks=64") collapse to one key. The format is
// part of the address because the cached bytes differ (TSV vs binary),
// not the stream they encode.
func CacheKey(name, format string) string {
	h := sha256.New()
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return hex.EncodeToString(h.Sum(nil))
}

// digestSidecar is the file inside a committed entry that memoizes the
// stream's arc digest (the CSRDigest-scheme fingerprint) once some
// request has paid to derive it. It is advisory: absence only means the
// digest endpoint recomputes from the cached bytes.
const digestSidecar = "arcdigest"

// Entry is one committed cache object: a complete sharded generation
// directory. All fields are immutable after commit except the memoized
// digest and the pin/eviction bookkeeping, which the owning Store
// serializes.
type Entry struct {
	key      string
	dir      string
	name     string // canonical spec
	format   string // "tsv" or "binary"
	bytes    int64  // total size of manifest + shard files
	payload  int64  // total size of the shard files: a download's length
	arcs     int64
	vertices int64
	files    []string // shard file names in index order

	digest string // memoized arc digest, "" until derived

	elem *list.Element
	pins int
}

// Key returns the entry's content address.
func (e *Entry) Key() string { return e.key }

// Name returns the canonical spec the entry was generated from.
func (e *Entry) Name() string { return e.name }

// Format returns "tsv" or "binary".
func (e *Entry) Format() string { return e.format }

// Bytes returns the entry's total on-disk size.
func (e *Entry) Bytes() int64 { return e.bytes }

// Arcs returns the entry's total arc count.
func (e *Entry) Arcs() int64 { return e.arcs }

// Vertices returns the entry's vertex-id space.
func (e *Entry) Vertices() int64 { return e.vertices }

// ShardPaths returns the absolute paths of the entry's shard files in
// index order; concatenating them reproduces the canonical stream.
func (e *Entry) ShardPaths() []string {
	paths := make([]string, len(e.files))
	for i, f := range e.files {
		paths[i] = filepath.Join(e.dir, f)
	}
	return paths
}

// ManifestPath returns the absolute path of the entry's manifest.json.
func (e *Entry) ManifestPath() string { return filepath.Join(e.dir, distgen.ManifestName) }

// EntryInfo is the introspection view of one cache entry.
type EntryInfo struct {
	Key    string `json:"key"`
	Spec   string `json:"spec"`
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
	Arcs   int64  `json:"arcs"`
	Digest string `json:"digest,omitempty"`
	Pinned bool   `json:"pinned,omitempty"`
}

// Store is the content-addressed shard cache. Committed entries live
// under root/objects/<key[:2]>/<key>/; in-progress jobs stage under
// root/tmp/ and become visible only through Commit's atomic rename.
// Entries are evicted least-recently-used once total bytes exceed the
// budget, except entries pinned by in-flight downloads.
type Store struct {
	root     string
	maxBytes int64 // <= 0 means unlimited

	mu        sync.Mutex
	entries   map[string]*Entry
	lru       *list.List // front = least recently used
	bytes     int64
	evictions int64
}

// NewStore opens (or creates) a cache rooted at dir with the given byte
// budget (0 = unlimited). Existing committed entries are recovered by
// re-reading their manifests — a directory without a valid manifest is,
// by the abort contract, garbage from an interrupted run and is removed,
// as is everything under the staging area.
func NewStore(dir string, maxBytes int64) (*Store, error) {
	s := &Store{
		root:     dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*Entry),
		lru:      list.New(),
	}
	for _, sub := range []string{s.objectsRoot(), s.tmpRoot()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	if err := os.RemoveAll(s.tmpRoot()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.tmpRoot(), 0o755); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) objectsRoot() string { return filepath.Join(s.root, "objects") }
func (s *Store) tmpRoot() string     { return filepath.Join(s.root, "tmp") }

func (s *Store) entryDir(key string) string {
	return filepath.Join(s.objectsRoot(), key[:2], key)
}

// TempDir creates a fresh staging directory for one job. The caller
// must either Commit it or remove it; NewStore also sweeps the staging
// area on startup, so a crashed job leaks nothing across restarts.
func (s *Store) TempDir(id string) (string, error) {
	dir := filepath.Join(s.tmpRoot(), id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// recover scans the object tree, validating each entry through its
// manifest and removing anything invalid. Recovered entries enter the
// LRU in modification-time order — the closest persisted approximation
// of last use.
func (s *Store) recover() error {
	type found struct {
		e   *Entry
		mod int64
	}
	var all []found
	prefixes, err := os.ReadDir(s.objectsRoot())
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		dirs, err := os.ReadDir(filepath.Join(s.objectsRoot(), p.Name()))
		if err != nil {
			return err
		}
		for _, d := range dirs {
			dir := filepath.Join(s.objectsRoot(), p.Name(), d.Name())
			e, mod, rerr := s.readEntry(d.Name(), dir)
			if rerr != nil {
				// Abort contract: no valid manifest means the directory is
				// not a committed entry. Remove it rather than serve it.
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
				continue
			}
			all = append(all, found{e, mod})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod < all[j].mod })
	for _, f := range all {
		f.e.elem = s.lru.PushBack(f.e)
		s.entries[f.e.key] = f.e
		s.bytes += f.e.bytes
	}
	return nil
}

// readEntry validates one committed directory and rebuilds its Entry.
func (s *Store) readEntry(key, dir string) (*Entry, int64, error) {
	m, err := distgen.ReadManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	e := &Entry{
		key:      key,
		dir:      dir,
		name:     m.Source,
		format:   m.Format,
		arcs:     m.TotalArcs,
		vertices: m.Vertices,
	}
	var mod int64
	for _, sh := range m.Shards {
		fi, err := os.Stat(filepath.Join(dir, sh.File))
		if err != nil {
			return nil, 0, err
		}
		e.payload += fi.Size()
		e.files = append(e.files, sh.File)
		if t := fi.ModTime().UnixNano(); t > mod {
			mod = t
		}
	}
	e.bytes = e.payload
	if fi, err := os.Stat(filepath.Join(dir, distgen.ManifestName)); err == nil {
		e.bytes += fi.Size()
		if t := fi.ModTime().UnixNano(); t > mod {
			mod = t
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, digestSidecar)); err == nil {
		e.digest = strings.TrimSpace(string(b))
	}
	return e, mod, nil
}

// Acquire looks up and pins the entry for key, bumping it to
// most-recently-used. A pinned entry is exempt from eviction until
// every pin is released, so its files survive for the duration of a
// download. The caller must Release exactly once.
func (s *Store) Acquire(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToBack(e.elem)
	e.pins++
	return e, true
}

// Contains reports whether key is committed, bumping it to
// most-recently-used when it is (a cache hit is a use).
func (s *Store) Contains(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToBack(e.elem)
	}
	return e, ok
}

// Release unpins an entry acquired with Acquire. Pins defer eviction
// rather than exempting the entry: the last release re-runs the
// eviction sweep, so a budget held open by an in-flight download is
// restored as soon as the download ends.
func (s *Store) Release(e *Entry) {
	s.mu.Lock()
	e.pins--
	var evict []string
	if e.pins == 0 {
		evict = s.collectEvictionsLocked()
	}
	s.mu.Unlock()
	for _, dir := range evict {
		removeEntryDir(dir)
	}
}

// Commit publishes a completed staging directory (manifest already
// written last by WriteShards) as the entry for key: the directory is
// renamed into its content-addressed location in one atomic step, so
// readers observe either no entry or the complete one, never a partial
// state. If key was committed concurrently (the singleflight layer makes
// that unreachable, but the store does not depend on it) the staged copy
// is discarded and the existing entry returned. Commit then evicts
// least-recently-used unpinned entries until the byte budget holds.
func (s *Store) Commit(key, staged string) (*Entry, error) {
	e, _, err := s.readEntry(key, staged)
	if err != nil {
		os.RemoveAll(staged)
		return nil, fmt.Errorf("serve: commit %s: staged directory invalid: %w", key[:12], err)
	}
	final := s.entryDir(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.RemoveAll(staged)
		return nil, err
	}

	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		s.lru.MoveToBack(old.elem)
		s.mu.Unlock()
		os.RemoveAll(staged)
		return old, nil
	}
	s.mu.Unlock()

	// The rename happens outside the lock (it may hit a slow disk); the
	// key is not in the map, and only the committing job writes this
	// address, so nothing can race the destination.
	if err := os.Rename(staged, final); err != nil {
		os.RemoveAll(staged)
		return nil, err
	}
	e.dir = final

	s.mu.Lock()
	e.elem = s.lru.PushBack(e)
	s.entries[key] = e
	s.bytes += e.bytes
	evict := s.collectEvictionsLocked()
	s.mu.Unlock()
	for _, dir := range evict {
		removeEntryDir(dir)
	}
	return e, nil
}

// collectEvictionsLocked unlinks over-budget LRU entries from the index
// and returns the directories whose files the caller must remove (file
// removal happens outside the lock). Pinned entries are skipped — they
// stay indexed, so an in-flight download keeps its files and a
// concurrent identical submission still hits the cache instead of
// regenerating into the same content-addressed directory — and the
// final Release re-runs this sweep to settle the budget.
func (s *Store) collectEvictionsLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var dirs []string
	for elem := s.lru.Front(); elem != nil && s.bytes > s.maxBytes; {
		e := elem.Value.(*Entry)
		elem = elem.Next()
		if e.pins > 0 {
			continue
		}
		s.lru.Remove(e.elem)
		delete(s.entries, e.key)
		s.bytes -= e.bytes
		s.evictions++
		dirs = append(dirs, e.dir)
	}
	return dirs
}

// removeEntryDir removes a committed entry's files, manifest first: if
// the removal is torn (crash, IO error), what remains is a directory
// without a manifest — exactly the state recovery and the abort contract
// already treat as "no entry".
func removeEntryDir(dir string) {
	os.Remove(filepath.Join(dir, distgen.ManifestName))
	os.RemoveAll(dir)
}

// SetDigest memoizes the entry's arc digest in memory and in its
// sidecar file (written via temp+rename so a torn write is never a
// corrupt sidecar).
func (s *Store) SetDigest(e *Entry, digest string) {
	s.mu.Lock()
	e.digest = digest
	s.mu.Unlock()
	tmp := filepath.Join(e.dir, digestSidecar+".tmp")
	if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err == nil {
		os.Rename(tmp, filepath.Join(e.dir, digestSidecar))
	}
}

// Digest returns the entry's memoized arc digest, if derived.
func (s *Store) Digest(e *Entry) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.digest
}

// Stats returns the store's entry count, resident bytes, budget, and
// lifetime eviction count.
func (s *Store) Stats() (entries int, bytes, maxBytes, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.bytes, s.maxBytes, s.evictions
}

// Entries lists the committed entries from least to most recently used.
func (s *Store) Entries() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]EntryInfo, 0, s.lru.Len())
	for elem := s.lru.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*Entry)
		infos = append(infos, EntryInfo{
			Key: e.key, Spec: e.name, Format: e.format,
			Bytes: e.bytes, Arcs: e.arcs, Digest: e.digest, Pinned: e.pins > 0,
		})
	}
	return infos
}

// dirSize sums the regular files under dir (used by tests to audit the
// accounting the store keeps incrementally).
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
