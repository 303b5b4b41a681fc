package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/stream"
)

// The benchmark re-executes its own binary per workload; under `go
// test` that binary is the test binary, so it has to answer -child too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and names.go list the same workloads and metrics, and
// every name stays inside the character set the contract allows.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, names.go %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, names.go %q", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, names.go %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, names.go %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in names.go", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}

	kinds := append(append([]string(nil), hashKinds...), geoKinds...)
	sort.Strings(kinds)
	registered := kronvalid.ModelKinds()
	sort.Strings(registered)
	if strings.Join(kinds, ",") != strings.Join(registered, ",") {
		t.Errorf("hash-bin + geo-bin cover %v, the registry has %v", kinds, registered)
	}
	for _, sz := range []*sizes{&fullSizes, &smokeSizes} {
		for i, s := range sz.hashSpecs {
			if kindOf(s) != hashKinds[i] {
				t.Errorf("hash spec %q is not kind %q", s, hashKinds[i])
			}
		}
		for i, s := range sz.geoSpecs {
			if kindOf(s) != geoKinds[i] {
				t.Errorf("geo spec %q is not kind %q", s, geoKinds[i])
			}
		}
	}
}

func runBench(t *testing.T, args ...string) (stdout string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, errOut.String())
	}
	return out.String()
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func keysOf(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// All five workloads run at the smoke size, pass their output checks,
// and report exactly the end-to-end metrics, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	out := runBench(t, "-smoke", "-seconds", "1", "-dir", filepath.Join(dir, "out"), "-report", reportPath)
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out)
	}
	want := strings.Join(metricNames(endToEnd), ",")
	for _, wl := range workloadNames {
		res := rep.Workloads[wl]
		if res == nil {
			t.Fatalf("no result for %s", wl)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", wl, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		if got := strings.Join(keysOf(res.Metrics), ","); got != want {
			t.Errorf("%s reports %s, want %s", wl, got, want)
		}
		for name, v := range res.Metrics {
			if !(v.Value > 0) || v.Unit != unitOf(name) {
				t.Errorf("%s %s = %v %q", wl, name, v.Value, v.Unit)
			}
		}
	}
	if _, err := loadReports([]string{reportPath}); err != nil {
		t.Errorf("-report output does not load: %v", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "out")); len(entries) != 0 {
		t.Errorf("workload directories left behind: %v", entries)
	}
}

// Named alone, a workload ends its output with the driver's object.
func TestDriverLine(t *testing.T) {
	out := runBench(t, "--workload", wlKronTSV, "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke", "-dir", t.TempDir())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line has keys %v", line)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m := metrics[d.Name]
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", d.Name, m)
		}
	}
}

// The traced run reports every per-layer metric for every workload,
// attributes the blocking path, and writes well-formed spans.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	out := runBench(t, "-smoke", "-seconds", "1", "-trace", "1", "-trace-out", spansPath, "-dir", filepath.Join(dir, "out"))
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(metricNames(perLayer), ",")
	for _, wl := range workloadNames {
		res := rep.Workloads[wl]
		if res == nil || !res.Correct {
			t.Fatalf("%s: %+v", wl, res)
		}
		if got := strings.Join(keysOf(res.Metrics), ","); got != want {
			t.Errorf("%s reports %s, want %s", wl, got, want)
		}
		if res.Metrics["trace_overhead_frac"].Value == 0 {
			t.Errorf("%s: trace_overhead_frac not reported", wl)
		}
		if wl == wlServeMix {
			continue
		}
		// Self times along the blocking path must account for it.
		if f := res.Metrics["trace.attributed_frac"].Value; f < 0.9 || f > 1.001 {
			t.Errorf("%s: trace.attributed_frac = %v", wl, f)
		}
	}
	for _, k := range hashKinds {
		if rep.Workloads[wlHashBin].Metrics["model."+k+".arcs"].Value <= 0 {
			t.Errorf("hash-bin: no arcs for %s", k)
		}
	}
	for _, k := range geoKinds {
		if rep.Workloads[wlGeoBin].Metrics["model."+k+".gen_arcs_per_s"].Value <= 0 {
			t.Errorf("geo-bin: no generation rate for %s", k)
		}
	}
	if hits := rep.Workloads[wlServeMix].Metrics["serve.cache_hits"].Value; hits <= 0 {
		t.Errorf("serve-mix: serve.cache_hits = %v", hits)
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	perWorkload := map[string]map[int]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if perWorkload[s.Workload] == nil {
			perWorkload[s.Workload] = map[int]span{}
		}
		perWorkload[s.Workload][s.ID] = s
	}
	for _, wl := range workloadNames {
		spans := perWorkload[wl]
		if len(spans) == 0 {
			t.Errorf("no spans for %s", wl)
		}
		for _, s := range spans {
			if s.Name == "" || s.EndNS < s.StartNS || s.BusyNS < 0 {
				t.Errorf("%s: malformed span %+v", wl, s)
			}
			if _, ok := spans[s.Parent]; s.Parent != 0 && !ok {
				t.Errorf("%s: span %d names missing parent %d", wl, s.ID, s.Parent)
			}
		}
	}
}

// tsvSum streams src into the TSV encoder and returns the bytes' sum;
// with wrap, source, sink and writer all go through the timing wrappers.
func tsvSum(t *testing.T, src stream.Source, workers int, wrap bool) streamSum {
	t.Helper()
	var w sumWriter
	var sink stream.Sink = gio.NewArcTextWriter(&w)
	if wrap {
		src, _ = wrapSource(src)
		sink = &timedSink{inner: gio.NewArcTextWriter(&timedWriter{w: &w})}
	}
	if _, err := kronvalid.Stream(bg, src, sink, kronvalid.WithWorkers(workers)); err != nil {
		t.Fatal(err)
	}
	return w.s
}

// The timing wrappers change no byte: one hash kind, one geo kind and
// the Kronecker slice digest the same with and without them.
func TestWrappersTransparent(t *testing.T) {
	sources := map[string]stream.Source{}
	for _, spec := range []string{"rmat:scale=12,seed=5", "rgg2d:n=20000,r=0.01,seed=5"} {
		g, err := kronvalid.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		sources[spec] = kronvalid.ModelSource(g, 5)
	}
	p, err := buildProduct(webSpec(300, 1), webSpec(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := chooseSlice(kronvalid.ProductSource(p, 64), 200000, 9)
	if err != nil {
		t.Fatal(err)
	}
	sources["kron slice"] = sl
	for name, src := range sources {
		plain := tsvSum(t, src, 1, false)
		if plain.bytes == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		for _, workers := range []int{1, 3} {
			if got := tsvSum(t, src, workers, true); got != plain {
				t.Errorf("%s at %d workers: wrapped stream %+v, plain %+v", name, workers, got, plain)
			}
		}
	}
}

// countingFactorySource counts how many per-worker generators a driver
// asked for.
type countingFactorySource struct {
	stream.Source
	inner     stream.FactorySource
	factories int
}

func (c *countingFactorySource) ShardGenFactory() stream.GenFactory {
	f := c.inner.ShardGenFactory()
	return func() stream.ShardGen {
		c.factories++
		return f()
	}
}

// A wrapped FactorySource is still one, and a serial driver that runs
// every shard on one worker still gets exactly one generator — so the
// spatial kinds keep their worker caches under tracing.
func TestWrapSourceKeepsFactory(t *testing.T) {
	g, err := kronvalid.NewGenerator("rgg2d:n=20000,r=0.01,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	plain := kronvalid.ModelSource(g, 6)
	inner, ok := plain.(stream.FactorySource)
	if !ok {
		t.Skip("rgg2d source has no per-worker factory")
	}
	counting := &countingFactorySource{Source: plain, inner: inner}
	wrapped, timing := wrapSource(counting)
	if _, ok := wrapped.(stream.FactorySource); !ok {
		t.Fatal("wrapSource dropped stream.FactorySource")
	}
	var count stream.CountSink
	if _, err := kronvalid.Stream(bg, wrapped, &count, kronvalid.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if counting.factories != 1 {
		t.Errorf("driver built %d generators for one worker, want 1", counting.factories)
	}
	var arcs int64
	for w := range timing.shards {
		arcs += timing.shards[w].arcs
	}
	if arcs != count.N || arcs == 0 {
		t.Errorf("wrapper saw %d arcs, sink %d", arcs, count.N)
	}
}

func reportWith(wall, q1, q3 float64) report {
	return report{Workloads: map[string]*result{wlKronTSV: {Metrics: map[string]value{
		"wall_s": {Value: wall, Unit: "s", N: 9, Q1: &q1, Q3: &q3},
	}}}}
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		name      string
		base, cur report
		verdict   string
		status    int
	}{
		{"same", reportWith(1, 0.99, 1.01), reportWith(1.2, 1.19, 1.21), "ok", 0},
		{"slower", reportWith(1, 0.99, 1.01), reportWith(1.3, 1.29, 1.31), "worse", 1},
		{"noisy", reportWith(1, 0.5, 1.4), reportWith(1.3, 0.9, 1.8), "unresolved", 0},
		{"noisy but clearly faster", reportWith(1, 0.5, 1.4), reportWith(0.4, 0.35, 0.45), "ok", 0},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		status := compareReports([]report{tc.base}, []report{tc.cur}, &out)
		if status != tc.status || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: status %d, output\n%s\nwant status %d and verdict %q", tc.name, status, out.String(), tc.status, tc.verdict)
		}
	}
	// Several reports per side: the runs' medians are the samples.
	base := []report{reportWith(1, 1, 1), reportWith(1.01, 1, 1), reportWith(0.99, 1, 1)}
	cur := []report{reportWith(1.3, 1, 1), reportWith(1.31, 1, 1), reportWith(1.29, 1, 1)}
	var out bytes.Buffer
	if status := compareReports(base, cur, &out); status != 1 {
		t.Errorf("pooled runs: status %d\n%s", status, out.String())
	}
}
