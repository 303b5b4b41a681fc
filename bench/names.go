package main

// The names in this file are the benchmark's contract: BENCHMARK.json
// lists the same workloads and metrics (bench_test.go keeps the two from
// drifting), and later issues cite results by them.

// Workload names, in the order a full run executes them.
const (
	wlKronTruth = "kron-truth"
	wlKronTSV   = "kron-tsv"
	wlHashBin   = "hash-bin"
	wlGeoBin    = "geo-bin"
	wlServeMix  = "serve-mix"
)

var workloadNames = []string{wlKronTruth, wlKronTSV, wlHashBin, wlGeoBin, wlServeMix}

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before it
// counts as a regression; layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them: where a metric's own quantity does not exist on a
// workload (truth_s outside kron-truth, the request classes outside
// serve-mix) it repeats that workload's wall_s in the metric's unit, so
// its gate can only trip together with wall_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"arcs_per_s", "arcs/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"truth_s", "s", "lower", 0.25},
	{"hot_p50_ms", "ms", "lower", 0.25},
	{"hot_p90_ms", "ms", "lower", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"cold_p90_ms", "ms", "lower", 0.25},
}

// hashKinds and geoKinds split the ten registered model kinds by how
// they use the model layer: raw draws versus cross-chunk recomputation.
var (
	hashKinds = []string{"rmat", "gnm", "er", "chunglu", "grid2d", "grid3d"}
	geoKinds  = []string{"ba", "rgg2d", "rgg3d", "rhg"}
)

// perLayer lists the single-layer metrics of the traced run. A traced
// run of one workload reports all of them; layers that workload does not
// exercise read 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"gen.factor_build_s", "s", "lower", 0},
		{"triangle.factor_stats_s", "s", "lower", 0},
		{"triangle.wedge_checks", "count", "lower", 0},
		{"kron.closed_forms_s", "s", "lower", 0},
		{"kron.gen_arcs_per_s", "arcs/s", "higher", 0},
		{"verify.sampled_s", "s", "lower", 0},
		{"verify.checks", "count", "higher", 0},
		{"stream.ordered_w1_arcs_per_s", "arcs/s", "higher", 0},
		{"stream.ordered_wn_arcs_per_s", "arcs/s", "higher", 0},
		{"stream.ordered_speedup_wn", "ratio", "higher", 0},
		{"stream.producer_blocked_s", "s", "lower", 0},
		{"stream.consumer_idle_s", "s", "lower", 0},
		{"stream.driver_self_s", "s", "lower", 0},
		{"stream.gen_self_s", "s", "lower", 0},
		{"stream.pershard_speedup_wn", "ratio", "higher", 0},
		{"distgen.shard_skew", "ratio", "lower", 0},
		{"distgen.write_shards_s", "s", "lower", 0},
		{"distgen.commit_s", "s", "lower", 0},
		{"distgen.file_write_s", "s", "lower", 0},
		{"distgen.file_write_mb_per_s", "MB/s", "higher", 0},
		{"gio.encode_self_s", "s", "lower", 0},
		{"gio.tsv_encode_mb_per_s", "MB/s", "higher", 0},
		{"gio.bin_encode_mb_per_s", "MB/s", "higher", 0},
		{"gio.tsv_bytes_per_arc", "B/arc", "lower", 0},
		{"gio.digest_arcs_per_s", "arcs/s", "higher", 0},
		{"rng.fill_u64_per_s", "1/s", "higher", 0},
		{"rng.unit_uniform_per_s", "1/s", "higher", 0},
		{"rng.geometric_per_s", "1/s", "higher", 0},
	}
	for _, kinds := range [][]string{hashKinds, geoKinds} {
		for _, k := range kinds {
			defs = append(defs,
				metricDef{"model." + k + ".new_s", "s", "lower", 0},
				metricDef{"model." + k + ".gen_arcs_per_s", "arcs/s", "higher", 0},
				metricDef{"model." + k + ".wall_s", "s", "lower", 0},
				metricDef{"model." + k + ".allocs", "count", "lower", 0},
				metricDef{"model." + k + ".arcs", "count", "higher", 0},
			)
		}
	}
	return append(defs,
		metricDef{"csr.twopass_arcs_per_s", "arcs/s", "higher", 0},
		metricDef{"csr.onepass_arcs_per_s", "arcs/s", "higher", 0},
		metricDef{"serve.open_s", "s", "lower", 0},
		metricDef{"serve.hot_submit_ms_p50", "ms", "lower", 0},
		metricDef{"serve.hot_ttfb_ms_p50", "ms", "lower", 0},
		metricDef{"serve.hot_download_mb_per_s", "MB/s", "higher", 0},
		metricDef{"serve.hot_p99_ms", "ms", "lower", 0},
		metricDef{"serve.cold_submit_ms_p50", "ms", "lower", 0},
		metricDef{"serve.cold_generate_ms_p50", "ms", "lower", 0},
		metricDef{"serve.cold_download_ms_p50", "ms", "lower", 0},
		metricDef{"serve.manager_cold_ms_p50", "ms", "lower", 0},
		metricDef{"serve.cache_hits", "count", "higher", 0},
		metricDef{"serve.cache_misses", "count", "lower", 0},
		metricDef{"serve.evictions", "count", "lower", 0},
		metricDef{"serve.rejected_429", "count", "lower", 0},
		metricDef{"serve.bytes_served", "B", "higher", 0},
		metricDef{"trace.attributed_frac", "ratio", "higher", 0},
		metricDef{"trace_overhead_frac", "ratio", "lower", 0},
	)
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// sizes holds every input size of the five workloads. The full sizes are
// the ones ISSUE 11 fixed; smoke shrinks each input about 50× so tier-1
// tests can run every workload in seconds.
type sizes struct {
	truthFactorN int   // kron-truth: vertices per web factor
	truthShards  int   // kron-truth: ProductSource shard count
	truthSlice   int64 // kron-truth: minimum arcs in the streamed slice
	truthPrefix  int64 // kron-truth: arcs digested at 1 and W workers
	truthSamples int   // kron-truth: ValidateSampled vertex = edge samples
	tsvAN, tsvBN int   // kron-tsv: web factor vertex counts
	hashSpecs    []string
	geoSpecs     []string
	serveHot     string // serve-mix: hot spec (seed appended)
	serveCold    string // serve-mix: cold template (unique seed appended)
	serveBudget  int64  // serve-mix: cache byte budget
	servePerSec  int    // serve-mix: requests scheduled per second of -seconds
	servePrefill int    // serve-mix: committed entries the timed opens recover
	serveOpens   int    // serve-mix: timed opens (setup_s samples)
	// serve-mix, traced: cold jobs submitted to the Manager with no HTTP;
	// at 4 MB an entry, 72 of them also fill the 256 MiB budget.
	serveManagerCold int
	probeArcs        int // encoder / digest probes: pre-generated arcs
	probeRNG         int // rng probes: buffer elements
	probeRNGLoops    int // rng probes: buffer refills per sample
	minSetups        int // setup_s samples a run collects at least
	minReps          int // measured repetitions a time-boxed run makes at least
}

var fullSizes = sizes{
	truthFactorN: 16384, truthShards: 4096, truthSlice: 256 << 20, truthPrefix: 16 << 20, truthSamples: 64,
	tsvAN: 1024, tsvBN: 512,
	hashSpecs: []string{
		"rmat:scale=19",
		"gnm:n=1000000,m=8000000",
		"er:n=250000,p=0.0004",
		"chunglu:n=4000000,dmin=8,dmax=2000,gamma=2.1",
		"grid2d:x=2000,y=2000,wrap=true,p=0.8",
		"grid3d:x=128,y=128,z=128,wrap=true,p=0.8",
	},
	geoSpecs: []string{
		"ba:n=2000000,d=4",
		"rgg2d:n=3000000,r=0.001",
		"rgg3d:n=1000000,r=0.0097",
		"rhg:n=700000,d=16,gamma=2.9",
	},
	serveHot: "rmat:scale=16,edges=1048576", serveCold: "rmat:scale=14,edges=262144",
	serveBudget: 256 << 20, servePerSec: 100, servePrefill: 32, serveOpens: 15, serveManagerCold: 72,
	probeArcs: 4 << 20, probeRNG: 1 << 20, probeRNGLoops: 64,
	minSetups: 9, minReps: 3,
}

var smokeSizes = sizes{
	truthFactorN: 2300, truthShards: 4096, truthSlice: 5 << 20, truthPrefix: 1 << 18, truthSamples: 8,
	tsvAN: 160, tsvBN: 64,
	hashSpecs: []string{
		"rmat:scale=13",
		"gnm:n=20000,m=160000",
		"er:n=35000,p=0.0004",
		"chunglu:n=80000,dmin=8,dmax=300,gamma=2.1",
		"grid2d:x=280,y=280,wrap=true,p=0.8",
		"grid3d:x=35,y=35,z=35,wrap=true,p=0.8",
	},
	geoSpecs: []string{
		"ba:n=40000,d=4",
		"rgg2d:n=60000,r=0.007",
		"rgg3d:n=20000,r=0.036",
		"rhg:n=14000,d=16,gamma=2.9",
	},
	serveHot: "rmat:scale=11,edges=20000", serveCold: "rmat:scale=9,edges=5000",
	serveBudget: 5 << 20, servePerSec: 30, servePrefill: 4, serveOpens: 2, serveManagerCold: 4,
	probeArcs: 1 << 16, probeRNG: 1 << 14, probeRNGLoops: 4,
	minSetups: 2, minReps: 1,
}

// kindOf returns the model kind a spec string names.
func kindOf(spec string) string {
	for i, r := range spec {
		if r == ':' || r == '(' {
			return spec[:i]
		}
	}
	return spec
}
