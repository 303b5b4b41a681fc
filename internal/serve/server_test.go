package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kronvalid/internal/distgen"
	"kronvalid/internal/gio"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// newTestService starts a Server on an httptest listener. The returned
// base URL has no trailing slash.
func newTestService(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

func decodeJSON(t *testing.T, r io.Reader, v any) {
	t.Helper()
	if err := json.NewDecoder(r).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// submit POSTs a job and returns (view, HTTP status).
func submit(t *testing.T, base, spec, format string) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Spec: spec, Format: format})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return JobView{}, resp.StatusCode
	}
	var v JobView
	decodeJSON(t, resp.Body, &v)
	return v, resp.StatusCode
}

// jobStatus GETs a job view, long-polling up to wait when nonzero.
func jobStatus(t *testing.T, base, id string, wait time.Duration) JobView {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if wait > 0 {
		url += "?wait=" + wait.String()
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	var v JobView
	decodeJSON(t, resp.Body, &v)
	return v
}

// waitDone long-polls until the job is terminal and fails the test if
// it does not land in want.
func waitDone(t *testing.T, base, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := jobStatus(t, base, id, 2*time.Second)
		switch v.State {
		case StateDone.String(), StateFailed.String(), StateCancelled.String():
			if v.State != want.String() {
				t.Fatalf("job %s finished %s (error %q), want %s", id, v.State, v.Error, want)
			}
			return v
		}
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// download GETs a job's result body.
func download(t *testing.T, base, id string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp
}

// referenceBytes runs the library pipeline directly — no service — and
// returns the concatenated canonical stream for spec. The shard count
// deliberately differs from the service's ShardsPerJob: the content-
// address argument says the concatenation is identical for any layout.
func referenceBytes(t *testing.T, spec, format string, shards int) ([]byte, *distgen.Manifest) {
	t.Helper()
	g, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlan(g, shards)
	dir := t.TempDir()
	man, err := distgen.WriteShards(context.Background(), dir, pl, nil,
		format == "binary", stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, sh := range man.Shards {
		b, err := os.ReadFile(filepath.Join(dir, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes(), man
}

// TestServeCacheCorrectness is the E2E satellite: submit a spec, check
// the served bytes are identical to a direct WriteShards run, submit
// the same spec again (spelled differently) and check it is answered
// from the cache with the same bytes.
func TestServeCacheCorrectness(t *testing.T) {
	for _, format := range []string{"binary", "tsv"} {
		t.Run(format, func(t *testing.T) {
			s, base := newTestService(t, Config{ShardsPerJob: 4})
			const spec = "rmat:scale=10,edges=16384,seed=7"
			want, man := referenceBytes(t, spec, format, 3) // 3 shards ≠ service's 4

			v, code := submit(t, base, spec, format)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit: HTTP %d", code)
			}
			if v.Cached {
				t.Fatal("first submission claims a cache hit")
			}
			done := waitDone(t, base, v.ID, StateDone)
			// R-MAT dedupes repeated edges, so the realized arc count is
			// below the requested 16384 — compare against the direct run.
			if done.ArcsDone != man.TotalArcs {
				t.Errorf("arcs_done = %d, want %d", done.ArcsDone, man.TotalArcs)
			}
			got, resp := download(t, base, v.ID)
			if !bytes.Equal(got, want) {
				t.Fatalf("served bytes differ from direct WriteShards: %d vs %d bytes", len(got), len(want))
			}
			if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Errorf("Content-Length = %s, want %d", cl, len(want))
			}
			if k := resp.Header.Get("X-Genserve-Key"); k != v.Key {
				t.Errorf("X-Genserve-Key = %s, want %s", k, v.Key)
			}

			// Same generator, different spelling: seed=7 is explicit above,
			// parameter order swapped here. Must be a hit.
			v2, code := submit(t, base, "rmat:seed=7,edges=16384,scale=10", format)
			if code != http.StatusOK {
				t.Fatalf("resubmit: HTTP %d, want 200 for a cache hit", code)
			}
			if !v2.Cached || v2.State != StateDone.String() {
				t.Fatalf("resubmit not served from cache: %+v", v2)
			}
			if v2.Key != v.Key {
				t.Errorf("respelled spec got key %s, want %s", v2.Key, v.Key)
			}
			got2, _ := download(t, base, v2.ID)
			if !bytes.Equal(got2, want) {
				t.Fatal("cache-hit bytes differ from direct WriteShards")
			}

			met := s.Manager().Metrics()
			if h, m := met.Hits.Load(), met.Misses.Load(); h != 1 || m != 1 {
				t.Errorf("hits=%d misses=%d, want 1/1", h, m)
			}
		})
	}
}

// slowConfig makes generation slow and cancellation latency tight:
// one worker thread inside the job and a small pipeline batch.
func slowConfig(dir string) Config {
	return Config{Dir: dir, GenWorkers: 1, BatchSize: 256, ShardsPerJob: 4}
}

// slowSpec is big enough (~5M arcs, 80 MB binary) that a single-thread
// generation takes long enough for the test to act mid-job.
func slowSpec(seed int) string {
	return fmt.Sprintf("gnm:n=200000,m=5000000,seed=%d", seed)
}

// TestServeCancelLeavesNoCacheEntry cancels a job mid-generation and
// checks the abort contract end to end: terminal state cancelled, no
// cache entry, no staging leftovers, and a resubmission is a miss.
func TestServeCancelLeavesNoCacheEntry(t *testing.T) {
	s, base := newTestService(t, slowConfig(""))
	v, code := submit(t, base, slowSpec(1), "binary")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Wait until the job is demonstrably mid-generation.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := jobStatus(t, base, v.ID, 0)
		if st.State == StateRunning.String() && st.ArcsDone > 0 {
			break
		}
		if st.State == StateDone.String() {
			t.Fatal("job finished before the test could cancel it; slowSpec is not slow enough")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(base+"/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, base, v.ID, StateCancelled)

	store := s.Manager().Store()
	if n, _, _, _ := store.Stats(); n != 0 {
		t.Errorf("cancelled job left %d cache entries", n)
	}
	tmp, err := os.ReadDir(store.tmpRoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) != 0 {
		t.Errorf("cancelled job left %d staging directories", len(tmp))
	}
	r, rresp := download(t, base, v.ID)
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: HTTP %d (%s), want 409", rresp.StatusCode, r)
	}
	v2, _ := submit(t, base, slowSpec(1), "binary")
	if v2.Cached {
		t.Error("resubmission after cancel was served from cache")
	}
	if met := s.Manager().Metrics(); met.JobsCancelled.Load() != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", met.JobsCancelled.Load())
	}
}

// TestServeQueuedCancel cancels a job before any worker claims it.
func TestServeQueuedCancel(t *testing.T) {
	cfg := slowConfig("")
	cfg.Workers = 1
	cfg.QueueDepth = 4
	s, base := newTestService(t, cfg)
	_ = s
	a, _ := submit(t, base, slowSpec(10), "binary")
	// Wait for the worker to claim a so b stays queued.
	deadline := time.Now().Add(20 * time.Second)
	for jobStatus(t, base, a.ID, 0).State == StateQueued.String() {
		if time.Now().After(deadline) {
			t.Fatal("first job never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	b, _ := submit(t, base, slowSpec(11), "binary")
	if st := jobStatus(t, base, b.ID, 0).State; st != StateQueued.String() {
		t.Fatalf("second job state %s, want queued", st)
	}
	resp, err := http.Post(base+"/v1/jobs/"+b.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var bv JobView
	decodeJSON(t, resp.Body, &bv)
	resp.Body.Close()
	if bv.State != StateCancelled.String() {
		t.Errorf("queued cancel returned state %s, want cancelled immediately", bv.State)
	}
	// Cancel a too so the test does not wait out the full generation.
	http.Post(base+"/v1/jobs/"+a.ID+"/cancel", "application/json", nil)
	waitDone(t, base, a.ID, StateCancelled)
}

// TestServeAdmissionControl fills the queue and checks the 429 path.
func TestServeAdmissionControl(t *testing.T) {
	cfg := slowConfig("")
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s, base := newTestService(t, cfg)
	a, _ := submit(t, base, slowSpec(20), "binary")
	deadline := time.Now().Add(20 * time.Second)
	for jobStatus(t, base, a.ID, 0).State == StateQueued.String() {
		if time.Now().After(deadline) {
			t.Fatal("first job never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, code := submit(t, base, slowSpec(21), "binary"); code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", code)
	}
	if _, code := submit(t, base, slowSpec(22), "binary"); code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: HTTP %d, want 429", code)
	}
	if met := s.Manager().Metrics(); met.Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", met.Rejected.Load())
	}
}

// TestServeSingleflightDedup submits one spec from many goroutines and
// checks exactly one generation happened; everyone else attached.
func TestServeSingleflightDedup(t *testing.T) {
	s, base := newTestService(t, slowConfig(""))
	const n = 8
	spec := slowSpec(30)
	views := make([]JobView, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			v, code := submit(t, base, spec, "binary")
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d: HTTP %d", i, code)
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	ids := map[string]bool{}
	for _, v := range views {
		ids[v.ID] = true
	}
	met := s.Manager().Metrics()
	if met.Misses.Load() != 1 {
		t.Fatalf("misses = %d, want exactly 1 (singleflight)", met.Misses.Load())
	}
	if got := met.Hits.Load() + met.Dedups.Load(); got != n-1 {
		t.Errorf("hits+dedups = %d, want %d", got, n-1)
	}
	waitDone(t, base, views[0].ID, StateDone)
	if n, _, _, _ := s.Manager().Store().Stats(); n != 1 {
		t.Errorf("store has %d entries, want 1", n)
	}
}

// TestServeEvictionUnderLoad runs distinct specs through a store whose
// budget holds ~2 entries and checks eviction keeps the budget, evicted
// results answer 410, and a resubmission regenerates.
func TestServeEvictionUnderLoad(t *testing.T) {
	// gnm:n=2000,m=6000 binary ≈ 96 KB + manifest.
	cfg := Config{CacheBytes: 220 << 10, ShardsPerJob: 2}
	s, base := newTestService(t, cfg)
	specAt := func(i int) string { return fmt.Sprintf("gnm:n=2000,m=6000,seed=%d", 100+i) }
	var first JobView
	for i := 0; i < 6; i++ {
		v, code := submit(t, base, specAt(i), "binary")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		waitDone(t, base, v.ID, StateDone)
		if i == 0 {
			first = v
		}
	}
	entries, bytes_, maxBytes, evictions := s.Manager().Store().Stats()
	if bytes_ > maxBytes {
		t.Errorf("resident %d bytes over the %d budget", bytes_, maxBytes)
	}
	if evictions == 0 {
		t.Error("six entries through a two-entry budget evicted nothing")
	}
	if entries > 2 {
		t.Errorf("store holds %d entries, budget fits 2", entries)
	}
	if body, resp := download(t, base, first.ID); resp.StatusCode != http.StatusGone {
		t.Errorf("evicted result: HTTP %d (%s), want 410", resp.StatusCode, body)
	}
	v, _ := submit(t, base, specAt(0), "binary")
	if v.Cached {
		t.Error("evicted spec resubmission claims a cache hit")
	}
	waitDone(t, base, v.ID, StateDone)
	ref, _ := referenceBytes(t, specAt(0), "binary", 3)
	if got, _ := download(t, base, v.ID); !bytes.Equal(got, ref) {
		t.Error("regenerated bytes differ from direct WriteShards")
	}
}

// TestServeCountDigest exercises the fast-path endpoints against
// directly computed ground truth, including the cache-derived digest
// after a restart onto the same directory.
func TestServeCountDigest(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestService(t, Config{Dir: dir, ShardsPerJob: 2})

	getJSON := func(path string, v any) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			decodeJSON(t, resp.Body, v)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}

	const spec = "gnm:n=4000,m=12000,seed=5"
	var ci CountInfo
	if code := getJSON("/v1/count?spec="+spec, &ci); code != http.StatusOK {
		t.Fatalf("count: HTTP %d", code)
	}
	if ci.Arcs != 12000 || !ci.Exact || ci.Source != "closed-form" {
		t.Errorf("gnm count = %+v, want 12000 exact closed-form", ci)
	}

	var er CountInfo
	if code := getJSON("/v1/count?spec=er:n=3000,p=0.001,seed=4", &er); code != http.StatusOK {
		t.Fatalf("er count: HTTP %d", code)
	}
	if er.Exact || er.Source != "expectation" || er.Arcs != -1 {
		t.Errorf("er count = %+v, want inexact expectation -1", er)
	}
	var erx CountInfo
	if code := getJSON("/v1/count?spec=er:n=3000,p=0.001,seed=4&exact=true", &erx); code != http.StatusOK {
		t.Fatalf("er exact count: HTTP %d", code)
	}
	if !erx.Exact || erx.Source != "generated" || erx.Arcs < 0 {
		t.Errorf("er exact count = %+v, want generated exact", erx)
	}

	// Ground-truth digest through the library pipeline.
	g, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlan(g, 3)
	sink := gio.NewArcDigestSink(pl.NumVertices(), 12000)
	if _, err := stream.RunSource(context.Background(), pl, sink, stream.Options{}); err != nil {
		t.Fatal(err)
	}
	want, err := sink.Digest()
	if err != nil {
		t.Fatal(err)
	}

	var di DigestInfo
	if code := getJSON("/v1/digest?spec="+spec, &di); code != http.StatusOK {
		t.Fatalf("digest: HTTP %d", code)
	}
	if di.Digest != want || di.Source != "generated" {
		t.Errorf("digest = %+v, want %s generated", di, want)
	}
	var di2 DigestInfo
	getJSON("/v1/digest?spec="+spec, &di2)
	if di2.Digest != want || di2.Source != "memo" {
		t.Errorf("second digest = %+v, want %s memo", di2, want)
	}

	// Commit the stream, restart the service on the same directory, and
	// check the digest is now derived from cached bytes, not generation.
	v, _ := submit(t, base, spec, "binary")
	waitDone(t, base, v.ID, StateDone)

	_, base2 := newTestService(t, Config{Dir: dir, ShardsPerJob: 2})
	var di3 DigestInfo
	if code := getJSON2(t, base2, "/v1/digest?spec="+spec, &di3); code != http.StatusOK {
		t.Fatalf("restarted digest: HTTP %d", code)
	}
	if di3.Digest != want || di3.Source != "cache" {
		t.Errorf("restarted digest = %+v, want %s from cache", di3, want)
	}
	// The restarted service also answers the spec itself from the
	// recovered entry.
	v2, code := submit(t, base2, spec, "binary")
	if code != http.StatusOK || !v2.Cached {
		t.Errorf("restarted submit: HTTP %d cached=%v, want 200 cached", code, v2.Cached)
	}
}

func getJSON2(t *testing.T, base, path string, v any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		decodeJSON(t, resp.Body, v)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServeHTTPErrors pins the error-code mapping.
func TestServeHTTPErrors(t *testing.T) {
	s, base := newTestService(t, Config{})
	if _, code := submit(t, base, "nosuchmodel:n=10", "binary"); code != http.StatusBadRequest {
		t.Errorf("unknown model: HTTP %d, want 400", code)
	}
	if _, code := submit(t, base, "rmat:scale=10", "parquet"); code != http.StatusBadRequest {
		t.Errorf("unknown format: HTTP %d, want 400", code)
	}
	if met := s.Manager().Metrics(); met.BadSpecs.Load() != 2 {
		t.Errorf("bad_specs = %d, want 2", met.BadSpecs.Load())
	}
	resp, err := http.Get(base + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/count")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("count without spec: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServeMetricsHealthz smoke-checks the observability endpoints.
func TestServeMetricsHealthz(t *testing.T) {
	_, base := newTestService(t, Config{ShardsPerJob: 2})
	v, _ := submit(t, base, "gnm:n=2000,m=6000,seed=1", "binary")
	waitDone(t, base, v.ID, StateDone)
	download(t, base, v.ID)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"genserve_submits_total 1",
		"genserve_cache_misses_total 1",
		"genserve_jobs_done_total 1",
		"genserve_downloads_total 1",
		"genserve_cache_entries 1",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
	var hz struct {
		Status string `json:"status"`
	}
	if code := getJSON2(t, base, "/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz: HTTP %d status %q", code, hz.Status)
	}
	var cache struct {
		Count   int         `json:"count"`
		Entries []EntryInfo `json:"entries"`
	}
	if code := getJSON2(t, base, "/v1/cache", &cache); code != http.StatusOK || cache.Count != 1 || len(cache.Entries) != 1 {
		t.Errorf("cache view: HTTP %d %+v", code, cache)
	}
}

// TestServeDownloadErrorCounted: a committed entry that lost a shard
// file serves a body shorter than its Content-Length, and /metrics
// counts the failed download instead of a completed one.
func TestServeDownloadErrorCounted(t *testing.T) {
	s, base := newTestService(t, Config{ShardsPerJob: 4})
	v, _ := submit(t, base, "gnm:n=2000,m=6000,seed=1", "binary")
	waitDone(t, base, v.ID, StateDone)
	j, err := s.m.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.m.store.Acquire(j.key)
	if !ok {
		t.Fatal("done job has no cache entry")
	}
	paths := e.ShardPaths()
	s.m.store.Release(e)
	if err := os.Remove(paths[len(paths)-1]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil || int64(len(body)) >= resp.ContentLength {
		t.Fatalf("read %d of %d bytes (err %v), want a short body", len(body), resp.ContentLength, err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"genserve_download_errors_total 1", "genserve_downloads_total 0"} {
		if !strings.Contains(string(metrics), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}

// TestServeConcurrentChaos is the race-detector suite: concurrent
// submits (hot and cold), cancels, status polls, downloads, and metric
// scrapes against a store small enough to evict constantly. It asserts
// invariants, not outcomes: every response is a known code, and a done
// job's download is either complete or 410 — never torn.
func TestServeConcurrentChaos(t *testing.T) {
	cfg := Config{
		CacheBytes:   220 << 10,
		Workers:      3,
		GenWorkers:   2,
		QueueDepth:   64,
		ShardsPerJob: 2,
		BatchSize:    512,
	}
	s, base := newTestService(t, cfg)
	specs := make([]string, 6)
	for i := range specs {
		specs[i] = fmt.Sprintf("gnm:n=2000,m=6000,seed=%d", 500+i)
	}
	refBytes, _ := referenceBytes(t, specs[0], "binary", 2)
	wantLen := len(refBytes)

	const goroutines = 6
	const iters = 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi) + 1))
			for it := 0; it < iters; it++ {
				spec := specs[rng.Intn(len(specs))]
				v, code := submit(t, base, spec, "binary")
				switch code {
				case http.StatusOK, http.StatusAccepted:
				case http.StatusTooManyRequests:
					continue
				default:
					t.Errorf("chaos submit: HTTP %d", code)
					continue
				}
				switch rng.Intn(3) {
				case 0: // cancel, possibly mid-job
					resp, err := http.Post(base+"/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
					if err == nil {
						resp.Body.Close()
					}
				case 1: // poll status while running (atomic progress reads)
					jobStatus(t, base, v.ID, 0)
				case 2: // wait and download
					final := jobStatus(t, base, v.ID, 5*time.Second)
					if final.State != StateDone.String() {
						continue
					}
					body, resp := download(t, base, v.ID)
					switch resp.StatusCode {
					case http.StatusOK:
						if len(body) != wantLen {
							t.Errorf("chaos download: %d bytes, want %d", len(body), wantLen)
						}
					case http.StatusGone, http.StatusConflict:
					default:
						t.Errorf("chaos download: HTTP %d", resp.StatusCode)
					}
				}
				if it%10 == 0 {
					http.Get(base + "/metrics")
				}
			}
		}(gi)
	}
	wg.Wait()
	// Invariant: budget holds after the dust settles.
	if _, bytes_, maxBytes, _ := s.Manager().Store().Stats(); bytes_ > maxBytes {
		t.Errorf("resident %d bytes over the %d budget", bytes_, maxBytes)
	}
}

// TestManagerCloseCancelsInFlight checks shutdown: Close returns, the
// in-flight job lands cancelled, and later submits get ErrClosed.
func TestManagerCloseCancelsInFlight(t *testing.T) {
	cfg := slowConfig(t.TempDir())
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(slowSpec(40), "binary")
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Let it start so Close exercises mid-job cancellation.
	deadline := time.Now().Add(20 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.State(); st != StateCancelled && st != StateDone {
		t.Errorf("job state after Close = %s", st)
	}
	if _, err := m.Submit("gnm:n=100,m=200,seed=1", "binary"); err != ErrClosed {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
	if n, _, _, _ := m.Store().Stats(); j.State() == StateCancelled && n != 0 {
		t.Errorf("cancelled-on-close job left %d cache entries", n)
	}
}

// TestServeCachedJobContextDone: a cache hit runs nothing, so its job
// context is released at once instead of staying registered with the
// manager's base context for the manager's lifetime.
func TestServeCachedJobContextDone(t *testing.T) {
	s, base := newTestService(t, Config{ShardsPerJob: 2})
	const spec = "gnm:n=2000,m=6000,seed=4"
	v, _ := submit(t, base, spec, "binary")
	waitDone(t, base, v.ID, StateDone)
	v2, code := submit(t, base, spec, "binary")
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("resubmit: HTTP %d, cached %v, want a cache hit", code, v2.Cached)
	}
	for _, id := range []string{v.ID, v2.ID} {
		j, err := s.m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.ctx.Err() == nil {
			t.Errorf("job %s (cached %v): context still live after the job finished", id, j.cached)
		}
	}
}
