// Bench is the repository's benchmark: five end-to-end workloads over
// the generation pipeline and the generation service, every layer timed
// from outside through its public functions, and a traced run that
// attributes each workload's time to those layers. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics;
// README.md in this directory explains them.
//
//	go run ./bench                                  all five workloads, every end-to-end metric
//	go run ./bench -workload kron-tsv,hash-bin      a subset
//	go run ./bench -trace 1 -trace-out spans.jsonl  the per-layer metrics and the spans
//	go run ./bench -report a.json                   also save the full report …
//	go run ./bench -compare a.json b.json           … and compare two of them
//	go run ./bench -smoke                           every input shrunk ≈ 50×, one repetition
//
// With exactly one workload named, the last line of standard output is
// the object BENCHMARK.json's driver reads:
//
//	{"correct":true,"attempted":9,"failed":0,"metrics":{"wall_s":{"value":0.71,"unit":"s"},…}}
//
// Each workload runs in a child process — this binary re-executed with
// -child — so it starts from a clean heap and its peak resident set is
// its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the full output of one invocation.
type report struct {
	Env       envBlock           `json:"env"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

// driverLine is the object BENCHMARK.json's contract asks for.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// register declares the flags the parent and the child it re-executes
// share; spawn hands them on unchanged.
func (c *config) register(fs *flag.FlagSet) (trace *int) {
	fs.Uint64Var(&c.seed, "seed", 1, "derives every factor, model and cold-spec seed, slice start and request order")
	fs.IntVar(&c.procs, "procs", min(runtime.NumCPU(), 4), "GOMAXPROCS = workers = shards = client connections")
	fs.StringVar(&c.dir, "dir", "", "directory for shard files and caches (default: a fresh one under ./.bench_build)")
	fs.Float64Var(&c.seconds, "seconds", 20, "measurement budget per workload; repetitions stop when it is spent (serve-mix schedules 100 requests per second of it)")
	fs.IntVar(&c.reps, "reps", 0, "measured repetitions per workload; 0 = as many as fit into -seconds")
	fs.BoolVar(&c.smoke, "smoke", false, "shrink every input ≈ 50× and run one repetition")
	fs.StringVar(&c.traceOut, "trace-out", "", "file the traced run appends its spans to, one JSON object per line (default: .bench_build/trace.jsonl)")
	return fs.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "-child" {
		return runChild(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	trace := c.register(fs)
	workloads := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	reportPath := fs.String("report", "", "also write the full report (env, quartiles, sample counts) to this file")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare base.json[,more…] new.json[,more…]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report lists: base.json[,…] new.json[,…]")
			return 2
		}
		return runCompare(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	c.trace = *trace == 1
	if *trace != 0 && *trace != 1 || c.procs < 1 || c.seconds <= 0 || c.reps < 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -procs at least 1, -seconds positive, -reps not negative")
		return 2
	}
	if c.smoke && c.reps == 0 {
		c.reps = 1
	}
	names := workloadNames
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
		for _, n := range names {
			if !slices.Contains(workloadNames, n) {
				fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames, ", "))
				return 2
			}
		}
	}
	rep, err := runAll(&c, names, stderr)
	if err == nil && *reportPath != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		err = os.WriteFile(*reportPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, res := range rep.Workloads {
		if !res.Correct {
			status = 1
		}
	}
	enc := json.NewEncoder(stdout)
	if len(names) == 1 {
		res := rep.Workloads[names[0]]
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
		for name, v := range res.Metrics {
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
		enc.Encode(&line)
	} else {
		enc.Encode(rep)
	}
	return status
}

// runAll runs the named workloads one after another, each in a child
// process and a directory of its own, and prints each result as it
// arrives.
func runAll(c *config, names []string, stderr io.Writer) (*report, error) {
	// Outputs stay inside the current directory unless -dir says otherwise.
	if c.dir == "" || c.trace && c.traceOut == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
	}
	if c.dir == "" {
		tmp, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return nil, err
		}
		c.dir = tmp
		defer os.RemoveAll(tmp)
	}
	if c.trace {
		if c.traceOut == "" {
			c.traceOut = filepath.Join(".bench_build", "trace.jsonl")
		}
		if err := os.WriteFile(c.traceOut, nil, 0o644); err != nil {
			return nil, err
		}
	}

	// An interrupted run still kills its child and removes its files.
	ctx, stop := signal.NotifyContext(bg, os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := &report{Env: newEnv(c), Trace: c.trace, Workloads: make(map[string]*result)}
	for _, name := range names {
		wc := *c
		wc.workload = name
		wc.dir = filepath.Join(c.dir, name)
		res, err := spawn(ctx, &wc, stderr)
		os.RemoveAll(wc.dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads[name] = res
		printResult(stderr, res, c.trace)
	}
	return rep, nil
}

// spawn re-executes this binary for one workload and completes the
// child's result with what only the parent can see: the child's peak
// resident set and its total running time.
func spawn(ctx context.Context, c *config, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	trace := 0
	if c.trace {
		trace = 1
	}
	cmd := exec.CommandContext(ctx, exe, "-child", c.workload,
		"-seed", fmt.Sprint(c.seed), "-procs", fmt.Sprint(c.procs), "-dir", c.dir,
		"-seconds", fmt.Sprint(c.seconds), "-reps", fmt.Sprint(c.reps),
		"-smoke="+fmt.Sprint(c.smoke), "-trace", fmt.Sprint(trace), "-trace-out", c.traceOut)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	res := new(result)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	res.RunS = seconds(time.Since(start))
	if !c.trace {
		res.set("peak_rss_mb", peakRSSMB(cmd.ProcessState))
	}
	return res, nil
}

// runChild runs one workload in this process and prints its result as
// one JSON line.
func runChild(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "bench: -child needs a workload")
		return 2
	}
	c := config{workload: args[0]}
	fs := flag.NewFlagSet("bench -child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trace := c.register(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	c.trace = *trace == 1
	runtime.GOMAXPROCS(c.procs)
	res, err := runWorkload(&c)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

func runWorkload(c *config) (*result, error) {
	var res *result
	var err error
	switch c.workload {
	case wlKronTruth:
		res, err = runKronTruth(c)
	case wlKronTSV, wlHashBin, wlGeoBin:
		res, err = runFiles(c)
	case wlServeMix:
		res, err = runServeMix(c)
	default:
		return nil, errors.New("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		// A traced run reports every layer; the ones this workload does
		// not exercise read 0.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = value{Unit: d.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult lists one workload's metrics by name with their units.
func printResult(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "%s: %d repetitions, %d operations attempted, %d failed (failed_frac %g), %.1f s\n",
		res.Workload, res.Reps, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.RunS)
	for _, msg := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", msg)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || trace && v.Value == 0 && v.N == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-7s", d.Name, v.Value, v.Unit)
		if v.Q1 != nil {
			fmt.Fprintf(w, " quartiles %.6g … %.6g, n=%d", *v.Q1, *v.Q3, v.N)
		} else if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
}
