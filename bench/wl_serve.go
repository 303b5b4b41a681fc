package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/rng"
)

// serve-mix is the genserve arc: an in-process generation service
// behind a real loopback listener, W closed-loop clients with one
// connection each, and a seeded schedule that replays one hot,
// cache-resident spec beside never-seen cold specs whose entries
// overflow the cache budget — cache reads and cache writes on one Store.

// service is one running GenService with its listener.
type service struct {
	svc  *kronvalid.GenService
	http *http.Server
	base string
	done chan struct{}
}

func startService(c *config, dir string, budget int64) (*service, error) {
	svc, err := kronvalid.NewGenService(kronvalid.GenServiceConfig{
		Dir: dir, CacheBytes: budget, Workers: c.procs, GenWorkers: c.procs, ShardsPerJob: c.procs, QueueDepth: 4 * c.procs,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &service{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// generate submits spec to the service's Manager, with no HTTP around
// it, and waits for the job to end.
func (s *service) generate(spec string) error {
	v, err := s.svc.Manager().Submit(spec, "binary")
	if err != nil {
		return err
	}
	j, err := s.svc.Manager().Job(v.ID)
	if err != nil {
		return err
	}
	<-j.Done()
	return nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the service (which joins its workers).
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// requestTrace collects the HTTP exchanges of one scheduled request.
type requestTrace struct {
	mu    sync.Mutex
	trips []roundTrip
}

type traceKey struct{}

// client is one closed-loop caller with its own connection and a body
// buffer it reuses across downloads. The buffer is handed in at full
// size and never grows during a run: a buffer that grows on demand makes
// the heap, and with it peak_rss_mb, depend on the order of the requests
// and on how the socket happens to chunk a download.
type client struct {
	http *http.Client
	base string
	body []byte
}

func newClient(base string, tr *tracer, body []byte) *client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = &timedTransport{inner: rt, done: func(req *http.Request, t roundTrip) {
			if r, ok := req.Context().Value(traceKey{}).(*requestTrace); ok {
				r.mu.Lock()
				r.trips = append(r.trips, t)
				r.mu.Unlock()
			}
		}}
	}
	return &client{http: &http.Client{Transport: rt, Timeout: 2 * time.Minute}, base: base, body: body}
}

func (cl *client) close() { cl.http.CloseIdleConnections() }

func (cl *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return cl.http.Do(req)
}

func (cl *client) job(ctx context.Context, method, path string, body []byte) (kronvalid.GenJob, error) {
	var v kronvalid.GenJob
	resp, err := cl.do(ctx, method, path, body)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return v, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("%s %s: %w", method, path, err)
	}
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return v, nil
}

// fetch runs one whole request — submit, wait for the job, download —
// and returns the downloaded bytes (valid until the client's next
// fetch), the arc count the service declared, and whether the submit
// was answered from the cache.
func (cl *client) fetch(ctx context.Context, spec string) (body []byte, arcs int64, cached bool, err error) {
	post, _ := json.Marshal(map[string]string{"spec": spec, "format": "binary"})
	v, err := cl.job(ctx, http.MethodPost, "/v1/jobs", post)
	if err != nil {
		return nil, 0, false, err
	}
	cached = v.Cached
	for v.State != "done" {
		if v.State == "failed" || v.State == "cancelled" {
			return nil, 0, cached, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
		}
		if v, err = cl.job(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"?wait=30s", nil); err != nil {
			return nil, 0, cached, err
		}
	}
	resp, err := cl.do(ctx, http.MethodGet, v.Result, nil)
	if err != nil {
		return nil, 0, cached, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, cached, fmt.Errorf("GET %s: HTTP %d", v.Result, resp.StatusCode)
	}
	arcs, _ = strconv.ParseInt(resp.Header.Get("X-Genserve-Arcs"), 10, 64)
	n := resp.ContentLength
	if n < 0 {
		return nil, 0, cached, fmt.Errorf("GET %s: no Content-Length", v.Result)
	}
	if n > int64(cap(cl.body)) {
		cl.body = make([]byte, n)
	}
	// ReadFull into exactly n bytes: bytes.Buffer.ReadFrom doubles a full
	// buffer whenever the last chunk off the socket is shorter than 512 B.
	body = cl.body[:n]
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, 0, cached, fmt.Errorf("GET %s: %w", v.Result, err)
	}
	return body, arcs, cached, nil
}

// generateDirect returns the binary stream of a model spec straight
// from the generator, with no service in between; size is the length
// the caller expects, allocated once.
func generateDirect(spec string, workers, size int) ([]byte, error) {
	g, err := kronvalid.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(size)
	if _, err := kronvalid.Stream(bg, kronvalid.ModelSource(g, workers), gio.NewArcBinaryWriter(&buf), kronvalid.WithWorkers(1)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scrape reads the service's /metrics and returns the counters by name.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, sc.Err()
}

// request is one scheduled request's outcome.
type request struct {
	cold    bool
	latency time.Duration
	arcs    int64
	bytes   int64
	failed  bool
	trace   *requestTrace
}

type serveRun struct {
	c       *config
	res     *result
	hotSpec string
	hotSum  streamSum
	bodies  [][]byte // one download buffer per client, sized for the hot stream
	tr      *tracer
	mu      sync.Mutex // guards res.fail from client goroutines
}

// Cold specs are the cold template with a seed no other request of the
// run uses: scheduled request i takes index i, the set-up prefill and
// the manager-only jobs take indices from their own ranges.
const (
	prefillSeeds = 1 << 20
	managerSeeds = 2 << 20
)

func (s *serveRun) coldSpec(i int) string {
	return withSeed(s.c.sizes().serveCold, s.c.seedFor(1000+i))
}

func (s *serveRun) failf(format string, args ...any) {
	s.mu.Lock()
	s.res.fail(format, args...)
	s.mu.Unlock()
}

// timedOpens measures set-up: NewGenService over a cache holding
// committed entries → the first /healthz answered 200.
func (s *serveRun) timedOpens(dir string) (opens, news []float64, err error) {
	c, sz := s.c, s.c.sizes()
	fill, err := startService(c, dir, 0)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < sz.servePrefill; i++ {
		if err := fill.generate(s.coldSpec(prefillSeeds + i)); err != nil {
			fill.stop()
			return nil, nil, err
		}
	}
	if err := fill.stop(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < sz.serveOpens; i++ {
		t0 := time.Now()
		svc, err := startService(c, dir, 0)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		resp, err := http.Get(svc.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
			}
		}
		d := time.Since(t0)
		if serr := svc.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, nil, err
		}
		opens = append(opens, seconds(d))
		news = append(news, seconds(t1.Sub(t0)))
	}
	return opens, news, nil
}

func runServeMix(c *config) (*result, error) {
	sz := c.sizes()
	s := &serveRun{c: c, res: newResult(c), hotSpec: withSeed(sz.serveHot, c.seedFor(0))}
	s.res.Specs = []string{s.hotSpec, withSeed(sz.serveCold, 0) + " (seed unique per cold request)"}
	if c.trace {
		s.tr = newTracer(c.workload)
	}

	opens, news, err := s.timedOpens(filepath.Join(c.dir, "open"))
	if err != nil {
		return nil, err
	}

	// The reference for every hot download: a direct WriteShards of the
	// hot spec, concatenated.
	g, err := kronvalid.NewGenerator(s.hotSpec)
	if err != nil {
		return nil, err
	}
	refDir := filepath.Join(c.dir, "ref")
	m, err := kronvalid.WriteShards(bg, refDir, kronvalid.ModelSource(g, c.procs), kronvalid.WithBinary(true))
	if err != nil {
		return nil, err
	}
	if s.hotSum, err = sumFiles(manifestPaths(refDir, m)); err != nil {
		return nil, err
	}
	s.bodies = make([][]byte, c.procs)
	for w := range s.bodies {
		s.bodies[w] = make([]byte, s.hotSum.bytes)
	}

	svc, err := startService(c, filepath.Join(c.dir, "cache"), sz.serveBudget)
	if err != nil {
		return nil, err
	}
	err = s.measure(svc, opens, news)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		return s.res, s.tr.writeTo(c.traceOut)
	}
	return s.res, nil
}

// measure primes the hot entry and runs the schedule: once for the
// end-to-end metrics, or — traced — one untraced and one traced half,
// whose ratio is the tracing overhead.
func (s *serveRun) measure(svc *service, opens, news []float64) error {
	c, res := s.c, s.res
	if c.trace {
		// The manager-only cold jobs run first: they also fill the cache
		// to its budget, so both halves of the schedule evict at the same
		// steady rate.
		if err := s.managerCold(svc); err != nil {
			return err
		}
	}
	if err := s.prime(svc); err != nil {
		return err
	}
	n := max(5, int(float64(c.sizes().servePerSec)*c.seconds))
	res.Reps = 1
	if !c.trace {
		out, err := s.schedule(svc, n, 0, nil)
		if err != nil {
			return err
		}
		hs, cs := sorted(out.hot), sorted(out.cold)
		res.setSamples("setup_s", opens)
		res.set("wall_s", seconds(out.wall))
		res.set("arcs_per_s", float64(out.arcs)/seconds(out.wall))
		res.setQuantile("hot_p50_ms", hs, 0.5)
		res.setQuantile("hot_p90_ms", hs, 0.9)
		res.setQuantile("cold_p50_ms", cs, 0.5)
		res.setQuantile("cold_p90_ms", cs, 0.9)
		fillUndefined(res)
		return nil
	}
	plain, err := s.schedule(svc, n/2, 0, nil)
	if err != nil {
		return err
	}
	traced, err := s.schedule(svc, n/2, n, s.tr)
	if err != nil {
		return err
	}
	res.set("trace_overhead_frac", seconds(traced.wall)/seconds(plain.wall)-1)
	res.setSamples("serve.open_s", news)
	s.traceMetrics(traced)
	return nil
}

// prime is the discarded warm-up: it generates and commits the hot
// entry and checks its first download.
func (s *serveRun) prime(svc *service) error {
	cl := newClient(svc.base, nil, s.bodies[0])
	defer cl.close()
	body, _, _, err := cl.fetch(bg, s.hotSpec)
	if err != nil {
		return fmt.Errorf("priming the hot spec: %w", err)
	}
	got := streamSum{int64(len(body)), crc32.Checksum(body, castagnoli)}
	if got != s.hotSum {
		s.res.fail("warm-up download: %d bytes CRC-32C %08x, direct WriteShards %d bytes %08x", got.bytes, got.crc, s.hotSum.bytes, s.hotSum.crc)
	}
	s.res.count(got == s.hotSum)
	return nil
}

// outcome is one executed schedule.
type outcome struct {
	wall      time.Duration
	reqs      []request
	hot, cold []float64 // latencies of the requests that succeeded, ms
	arcs      int64
	delta     func(counter string) float64 // /metrics after minus before
}

// schedule runs n requests — four in five hot, order fixed by a seeded
// shuffle — on W closed-loop clients. Cold request i uses cold seed
// offset+i, so two schedules of one run never share a cold spec.
func (s *serveRun) schedule(svc *service, n, offset int, tr *tracer) (*outcome, error) {
	c, res := s.c, s.res
	out := &outcome{reqs: make([]request, n)}
	reqs := out.reqs
	for i := range reqs {
		reqs[i].cold = i%5 == 4
	}
	shuffle := rng.New(c.seed + uint64(offset))
	for i := n - 1; i > 0; i-- {
		j := shuffle.Intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	firstCold, lastCold := -1, -1
	for i := range reqs {
		if reqs[i].cold {
			if firstCold < 0 {
				firstCold = i
			}
			lastCold = i
		}
	}

	before, err := scrape(svc.base)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(svc.base, tr, s.bodies[w])
			defer cl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s.one(cl, &reqs[i], offset+i, tr != nil, i == firstCold || i == lastCold)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	after, err := scrape(svc.base)
	if err != nil {
		return nil, err
	}
	out.delta = func(name string) float64 { return after[name] - before[name] }

	hotCount := 0
	for i := range reqs {
		r := &reqs[i]
		res.count(!r.failed)
		if !r.cold {
			hotCount++
		}
		if r.failed {
			continue
		}
		out.arcs += r.arcs
		if r.cold {
			out.cold = append(out.cold, float64(r.latency)/1e6)
		} else {
			out.hot = append(out.hot, float64(r.latency)/1e6)
		}
	}
	if hits := out.delta("genserve_cache_hits_total"); hits != float64(hotCount) {
		res.fail("%v cache hits for %d hot requests", hits, hotCount)
		res.Failed++
	}
	return out, nil
}

// one issues request i and checks its download once the clock has
// stopped.
func (s *serveRun) one(cl *client, r *request, i int, traced, deep bool) {
	ctx, spec := bg, s.hotSpec
	if r.cold {
		spec = s.coldSpec(i)
	}
	if traced {
		r.trace = &requestTrace{}
		ctx = context.WithValue(ctx, traceKey{}, r.trace)
	}
	t0 := time.Now()
	body, arcs, cached, err := cl.fetch(ctx, spec)
	r.latency = time.Since(t0)
	r.arcs, r.bytes = arcs, int64(len(body))
	switch {
	case err != nil:
		s.failf("request %d (%s): %v", i, spec, err)
		r.failed = true
	case !r.cold && !cached:
		s.failf("request %d: hot submit missed the cache", i)
		r.failed = true
	case !r.cold:
		if got := (streamSum{int64(len(body)), crc32.Checksum(body, castagnoli)}); got != s.hotSum {
			s.failf("request %d: hot download %d bytes CRC-32C %08x, reference %d bytes %08x", i, got.bytes, got.crc, s.hotSum.bytes, s.hotSum.crc)
			r.failed = true
		}
	case int64(len(body)) != arcs*16 || arcs == 0:
		s.failf("request %d (%s): %d bytes for %d declared arcs", i, spec, len(body), arcs)
		r.failed = true
	case deep:
		want, err := generateDirect(spec, s.c.procs, len(body))
		if err != nil || !bytes.Equal(body, want) {
			s.failf("request %d (%s): download differs from direct generation (%v)", i, spec, err)
			r.failed = true
		}
	}
}

// traceMetrics turns the recorded exchanges into spans and the serve.*
// layer metrics.
func (s *serveRun) traceMetrics(out *outcome) {
	res, reqs, hot, delta := s.res, out.reqs, out.hot, out.delta
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var hotSubmit, hotTTFB, hotRate, coldSubmit, coldGen, coldDown []float64
	for i := range reqs {
		r := &reqs[i]
		if r.failed || r.trace == nil || len(r.trace.trips) < 2 {
			continue
		}
		trips := r.trace.trips
		submit, down := trips[0], trips[len(trips)-1]
		class := "hot"
		if r.cold {
			class = "cold"
		}
		whole := s.tr.newSpan(0, "request", 1, submit.start, down.end, r.latency)
		whole.Part, whole.Index, whole.Arcs, whole.Bytes = class, i, r.arcs, r.bytes
		root := s.tr.add(whole)
		for k, t := range trips {
			name := "poll"
			switch k {
			case 0:
				name = "submit"
			case len(trips) - 1:
				name = "download"
			}
			trip := s.tr.newSpan(root, name, 1, t.start, t.end, t.end.Sub(t.start))
			trip.Part, trip.Index, trip.Bytes = class, i, t.bytes
			s.tr.add(trip)
		}
		if r.cold {
			coldSubmit = append(coldSubmit, ms(submit.end.Sub(submit.start)))
			coldGen = append(coldGen, ms(down.start.Sub(submit.end)))
			coldDown = append(coldDown, ms(down.end.Sub(down.start)))
			continue
		}
		hotSubmit = append(hotSubmit, ms(submit.end.Sub(submit.start)))
		hotTTFB = append(hotTTFB, ms(down.firstByte.Sub(down.start)))
		hotRate = append(hotRate, per(float64(down.bytes)/1e6, down.end.Sub(down.header)))
	}
	res.setSamples("serve.hot_submit_ms_p50", hotSubmit)
	res.setSamples("serve.hot_ttfb_ms_p50", hotTTFB)
	res.setSamples("serve.hot_download_mb_per_s", hotRate)
	res.setQuantile("serve.hot_p99_ms", sorted(hot), 0.99)
	res.setSamples("serve.cold_submit_ms_p50", coldSubmit)
	res.setSamples("serve.cold_generate_ms_p50", coldGen)
	res.setSamples("serve.cold_download_ms_p50", coldDown)
	res.set("serve.cache_hits", delta("genserve_cache_hits_total"))
	res.set("serve.cache_misses", delta("genserve_cache_misses_total"))
	res.set("serve.evictions", delta("genserve_evictions_total"))
	res.set("serve.rejected_429", delta("genserve_rejected_total"))
	res.set("serve.bytes_served", delta("genserve_bytes_served_total"))
}

// managerCold times the cold path with no HTTP around it: Submit on the
// service's Manager until the job is done, for never-seen specs of the
// cold family.
func (s *serveRun) managerCold(svc *service) error {
	var ds []float64
	for i := 0; i < s.c.sizes().serveManagerCold; i++ {
		t0 := time.Now()
		if err := svc.generate(s.coldSpec(managerSeeds + i)); err != nil {
			return err
		}
		ds = append(ds, float64(time.Since(t0))/1e6)
	}
	s.res.setSamples("serve.manager_cold_ms_p50", ds)
	return nil
}
