package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kronvalid"
)

// config is everything one workload run is parameterised by. The
// parent process fills it from flags and hands it to the child it
// re-executes; the program under test only ever sees spec strings
// derived from it.
type config struct {
	workload string
	seed     uint64
	procs    int     // GOMAXPROCS = workers = shards = client connections (W)
	dir      string  // output directory of this workload (created, removed by the parent)
	seconds  float64 // measurement budget of a time-boxed run
	reps     int     // fixed measured repetitions; 0 = time-boxed by seconds
	smoke    bool
	trace    bool
	traceOut string
}

func (c *config) sizes() *sizes {
	if c.smoke {
		return &smokeSizes
	}
	return &fullSizes
}

// value is one reported number: a median (or a percentile, a count, a
// ratio) with the quartiles of its samples beside it when it has any.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

// result is what one workload run reports: the child prints it as one
// JSON line, the parent adds peak_rss_mb and the wall-clock cost.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Reps      int              `json:"reps"`
	Specs     []string         `json:"specs"`
	Metrics   map[string]value `json:"metrics"`
	RunS      float64          `json:"run_s,omitempty"`
}

func newResult(c *config) *result {
	return &result{Workload: c.workload, Metrics: make(map[string]value)}
}

// fail records one failed check; only the first few messages are kept.
func (r *result) fail(format string, args ...any) {
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// count books one attempted operation and whether its checks held.
func (r *result) count(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

// setSamples reports the median of xs with its quartiles and count.
func (r *result) setSamples(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := sorted(xs)
	q1, q3 := quantile(s, 0.25), quantile(s, 0.75)
	r.Metrics[name] = value{Value: quantile(s, 0.5), Unit: unitOf(name), N: len(s), Q1: &q1, Q3: &q3}
}

// setQuantile reports one quantile of a sorted sample with its count.
func (r *result) setQuantile(name string, s []float64, q float64) {
	r.Metrics[name] = value{Value: quantile(s, q), Unit: unitOf(name), N: len(s)}
}

func unitOf(name string) string {
	if d, ok := findMetric(endToEnd, name); ok {
		return d.Unit
	}
	if d, ok := findMetric(perLayer, name); ok {
		return d.Unit
	}
	panic("bench: metric " + name + " is not in names.go")
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

// timeEach appends the duration of fn, in seconds, to xs until it holds
// n samples.
func timeEach(xs []float64, n int, fn func() error) ([]float64, error) {
	for len(xs) < n {
		t0 := time.Now()
		if err := fn(); err != nil {
			return xs, err
		}
		xs = append(xs, seconds(time.Since(t0)))
	}
	return xs, nil
}

// per returns x per second of d, and 0 for an interval the clock could
// not resolve (only the smoke sizes are that small).
func per(x float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return x / d.Seconds()
}

// repeater decides how many measured repetitions a workload makes: a
// fixed count when -reps is set, otherwise as many as fit into the
// -seconds budget (a repetition starts only if one more of the last
// one's length still fits), never fewer than minimum.
type repeater struct {
	c       *config
	minimum int
	budget  time.Duration
	start   time.Time
	done    int
	last    time.Duration
}

// newRepeater starts the clock on a share of the -seconds budget.
func (c *config) newRepeater(share float64, minimum int) *repeater {
	return &repeater{c: c, minimum: minimum, budget: time.Duration(share * c.seconds * float64(time.Second)), start: time.Now()}
}

// next reports whether another measured repetition should run; call
// finished after each one.
func (r *repeater) next() bool {
	if r.c.reps > 0 {
		return r.done < r.c.reps
	}
	if r.done < r.minimum {
		return true
	}
	return time.Since(r.start)+r.last <= r.budget
}

func (r *repeater) finished(d time.Duration) {
	r.done++
	r.last = d
}

// seedFor derives the i-th model or factor seed of a run. Seeds are
// small consecutive integers so the generated spec strings stay
// readable; distinct -seed values give disjoint spec sets for i < 1000.
func (c *config) seedFor(i int) uint64 { return c.seed*1000 + uint64(i) }

func withSeed(spec string, seed uint64) string {
	return fmt.Sprintf("%s,seed=%d", spec, seed)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamSum is the identity of a byte stream the output checks compare:
// its length and CRC-32C.
type streamSum struct {
	bytes int64
	crc   uint32
}

// sumWriter is an io.Writer that folds everything written into a
// streamSum.
type sumWriter struct{ s streamSum }

func (w *sumWriter) Write(p []byte) (int, error) {
	w.s.crc = crc32.Update(w.s.crc, castagnoli, p)
	w.s.bytes += int64(len(p))
	return len(p), nil
}

// sumFiles returns the streamSum of the files' concatenation.
func sumFiles(paths []string) (streamSum, error) {
	var w sumWriter
	buf := make([]byte, 1<<20)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return streamSum{}, err
		}
		_, err = io.CopyBuffer(&w, f, buf)
		f.Close()
		if err != nil {
			return streamSum{}, fmt.Errorf("read %s: %w", p, err)
		}
	}
	return w.s, nil
}

// sizeOfFiles returns the total size of the files without reading them.
func sizeOfFiles(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// forEachLimit runs fn(0..n-1) on at most limit goroutines and returns
// the first error in index order. It is used only outside timed regions
// (reference streams, file checks).
func forEachLimit(n, limit int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// envBlock describes the host a report was measured on.
type envBlock struct {
	NProc      int    `json:"nproc"`
	Procs      int    `json:"procs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	OutputDir  string `json:"output_dir"`
	Filesystem string `json:"output_filesystem"`
	Seed       uint64 `json:"seed"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func newEnv(c *config) envBlock {
	return envBlock{
		NProc:      runtime.NumCPU(),
		Procs:      c.procs,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		OutputDir:  c.dir,
		Filesystem: filesystemOf(c.dir),
		Seed:       c.seed,
		Smoke:      c.smoke,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// manifestPaths lists the shard files a manifest names, in index order.
func manifestPaths(dir string, m *kronvalid.ShardManifest) []string {
	paths := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		paths[i] = filepath.Join(dir, s.File)
	}
	return paths
}

var bg = context.Background()
