package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
)

// downloadSpecs give shards of every size class the download path
// treats differently: empty, under net/http's 512-byte sniff prefix,
// and well past it (and past one 32 KiB copy buffer).
var downloadSpecs = []string{
	"gnm:n=4,m=0",
	"gnm:n=6,m=3,seed=2",
	"gnm:n=300,m=200,seed=5",
	"gnm:n=2000,m=6000,seed=1",
}

// doneEntry submits spec in format and waits for it to commit.
func doneEntry(t *testing.T, s *Server, base, spec, format string) (JobView, *Entry) {
	t.Helper()
	v, code := submit(t, base, spec, format)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: HTTP %d", spec, code)
	}
	waitDone(t, base, v.ID, StateDone)
	e, ok := s.m.store.Contains(v.Key)
	if !ok {
		t.Fatalf("%s: done job has no cache entry", spec)
	}
	return v, e
}

// shardBytes concatenates an entry's shard files and returns their
// sizes.
func shardBytes(t *testing.T, e *Entry) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	var sizes []int
	for _, p := range e.ShardPaths() {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		sizes = append(sizes, len(b))
	}
	return buf.Bytes(), sizes
}

// TestDownloadOverLoopbackMatchesShards: over a real TCP listener, a
// download is the concatenation of the entry's shard files, and its
// Content-Length is the body's length, for both formats, one and three
// shards per entry, and shards empty, under and over 512 bytes.
func TestDownloadOverLoopbackMatchesShards(t *testing.T) {
	var empty, small, large bool
	for _, shards := range []int{1, 3} {
		s, base := newTestService(t, Config{ShardsPerJob: shards})
		for _, format := range []string{"binary", "tsv"} {
			for _, spec := range downloadSpecs {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, format, spec), func(t *testing.T) {
					v, e := doneEntry(t, s, base, spec, format)
					want, sizes := shardBytes(t, e)
					for _, n := range sizes {
						empty = empty || n == 0
						small = small || n > 0 && n < 512
						large = large || n > 512
					}
					got, resp := download(t, base, v.ID)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("HTTP %d", resp.StatusCode)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("served %d bytes, shard files hold %d (sizes %v)", len(got), len(want), sizes)
					}
					if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
						t.Errorf("Content-Length = %s, body is %d bytes", cl, len(got))
					}
				})
			}
		}
	}
	if !empty || !small || !large {
		t.Errorf("shard sizes covered: empty %v, under 512 B %v, over 512 B %v", empty, small, large)
	}
}

// readFromRecorder is a response writer with io.ReaderFrom, as
// net/http's own is. It records whether each source it was handed is
// an *os.File: the only form the connection's ReadFrom can sendfile.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	files, others int
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	if _, ok := src.(*os.File); ok {
		r.files++
	} else {
		r.others++
	}
	return io.Copy(r.ResponseRecorder, src)
}

// TestDownloadHandsShardFilesToReadFrom: the result and manifest
// handlers pass every file to the writer's ReadFrom as the *os.File
// itself. io.Copy(w, f) would hand over a wrapper that hides it.
func TestDownloadHandsShardFilesToReadFrom(t *testing.T) {
	s, base := newTestService(t, Config{ShardsPerJob: 3})
	v, e := doneEntry(t, s, base, "gnm:n=2000,m=6000,seed=1", "binary")
	want, sizes := shardBytes(t, e)

	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rec.Code, rec.Body)
	}
	if rec.files != len(sizes) || rec.others != 0 {
		t.Errorf("result: ReadFrom got %d *os.File and %d other sources, want %d files", rec.files, rec.others, len(sizes))
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("result: served %d bytes, shard files hold %d", rec.Body.Len(), len(want))
	}

	manifest, err := os.ReadFile(e.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	rec = &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/manifest", nil))
	if rec.files != 1 || rec.others != 0 {
		t.Errorf("manifest: ReadFrom got %d *os.File and %d other sources, want 1 file", rec.files, rec.others)
	}
	if !bytes.Equal(rec.Body.Bytes(), manifest) {
		t.Error("manifest: served bytes differ from manifest.json")
	}
}

// TestDownloadWithoutReadFrom: a writer without ReadFrom gets the same
// bytes and headers through the io.Copy fallback.
func TestDownloadWithoutReadFrom(t *testing.T) {
	s, base := newTestService(t, Config{ShardsPerJob: 3})
	for _, format := range []string{"binary", "tsv"} {
		v, e := doneEntry(t, s, base, "gnm:n=2000,m=6000,seed=1", format)
		want, _ := shardBytes(t, e)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", format, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: served %d bytes, shard files hold %d", format, rec.Body.Len(), len(want))
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length = %s, want %d", format, cl, len(want))
		}
	}
}

// TestDownloadLengthWithoutManifest: Content-Length is the shard
// payload the entry recorded at commit, not entry bytes minus a
// manifest stat per download, so an entry whose manifest.json has gone
// still announces exactly the body it serves.
func TestDownloadLengthWithoutManifest(t *testing.T) {
	s, base := newTestService(t, Config{ShardsPerJob: 3})
	v, e := doneEntry(t, s, base, "gnm:n=2000,m=6000,seed=1", "tsv")
	want, _ := shardBytes(t, e)
	if err := os.Remove(e.ManifestPath()); err != nil {
		t.Fatal(err)
	}
	got, resp := download(t, base, v.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("served %d bytes, shard files hold %d", len(got), len(want))
	}
	if resp.ContentLength != int64(len(want)) {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len(want))
	}
}
