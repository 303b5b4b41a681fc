package kronvalid

import (
	"io"

	"kronvalid/internal/census"
	"kronvalid/internal/csr"
	"kronvalid/internal/distgen"
	"kronvalid/internal/gen"
	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/model"
	"kronvalid/internal/serve"
	"kronvalid/internal/spec"
	"kronvalid/internal/stats"
	"kronvalid/internal/stream"
	"kronvalid/internal/triangle"
	"kronvalid/internal/truss"
	"kronvalid/internal/verify"
)

// ---- graphs ----

// Graph is an explicit factor graph: compressed sorted adjacency with
// optional self loops, direction, and vertex labels. Factor graphs are
// small (they fit in memory); product graphs stay implicit in Product.
type Graph = graph.Graph

// Edge is a directed arc (or one orientation of an undirected edge).
type Edge = graph.Edge

// FromEdges builds a graph on n vertices from arcs, deduplicating; with
// symmetrize it returns the undirected closure.
func FromEdges(n int, edges []Edge, symmetrize bool) *Graph {
	return graph.FromEdges(n, edges, symmetrize)
}

// ---- generators ----

// ParseGraph builds the explicit graph one factor spec names: a
// registered model kind ("gnm:n=150,m=900,seed=5", "rgg2d(n=800;r=0.06)",
// "rmat:scale=8" with the Graph500 parameters as its defaults; see
// MODELS.md), collected from the same stream gengen writes, or a
// factor-only kind (web, clique, pa1, file, …), either one with an
// optional "+loops" suffix. A model graph over the explicit-graph arc
// cap is an error, as is any malformed or out-of-range parameter.
func ParseGraph(s string) (*Graph, error) { return spec.Parse(s) }

// Clique returns K_n (Ex. 1).
func Clique(n int) *Graph { return gen.Clique(n) }

// CliqueWithLoops returns J_n, the clique with all self loops (Ex. 1).
func CliqueWithLoops(n int) *Graph { return gen.CliqueWithLoops(n) }

// HubCycle returns the Ex. 2 family: a c-cycle plus a hub adjacent to
// every cycle vertex.
func HubCycle(c int) *Graph { return gen.HubCycle(c) }

// Path returns the n-vertex path.
func Path(n int) *Graph { return gen.Path(n) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return gen.Cycle(n) }

// Star returns the (n-1)-leaf star.
func Star(n int) *Graph { return gen.Star(n) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph { return gen.CompleteBipartite(a, b) }

// ErdosRenyi returns G(n, p), deterministic in seed.
func ErdosRenyi(n int, p float64, seed uint64) *Graph { return gen.ErdosRenyi(n, p, seed) }

// WebGraph returns a scale-free graph with triad closure (probability pt
// per attachment): the offline stand-in for the paper's web-NotreDame
// factor.
func WebGraph(n, m int, pt float64, seed uint64) *Graph { return gen.WebGraph(n, m, pt, seed) }

// ChungLu samples the edge-independent null model with a prescribed
// expected degree sequence (the Rem. 1 stochastic baseline).
func ChungLu(degrees []int64, seed uint64) *Graph { return gen.ChungLu(degrees, seed) }

// ExpectedTrianglesChungLu returns the analytic expected triangle count
// of the edge-independent null with the given degrees.
func ExpectedTrianglesChungLu(degrees []int64) float64 {
	return gen.ExpectedTrianglesChungLu(degrees)
}

// TriangleLimitedPA returns the paper's §III.D(b) generator: a connected
// power-law graph in which every edge closes at most one triangle
// (the Thm. 3 hypothesis for factor B).
func TriangleLimitedPA(n int, seed uint64) *Graph { return gen.TriangleLimitedPA(n, seed) }

// ThinToDeltaOne is §III.D(a): deletes edges of an arbitrary undirected
// graph until Δ ≤ 1 everywhere, preserving connectivity via a protected
// spanning forest.
func ThinToDeltaOne(g *Graph, seed uint64) *Graph { return gen.ThinToDeltaOne(g, seed) }

// MaxEdgeTriangles reports the largest per-edge triangle count (the Δ ≤ 1
// checker).
func MaxEdgeTriangles(g *Graph) int64 { return gen.MaxEdgeTriangles(g) }

// ---- direct (explicit-graph) statistics ----

// TriangleResult is the exact triangle statistics of an explicit graph.
// Its EdgeDelta is aligned with the graph's arcs: one entry per arc, at
// the position Graph.ArcIndex returns, 0 on loop arcs.
type TriangleResult = triangle.Result

// CountTriangles computes t_A, Δ_A, τ(A) and the wedge-check cost for an
// explicit undirected graph.
func CountTriangles(g *Graph) *TriangleResult { return triangle.Count(g) }

// LocalClusteringCoefficients returns per-vertex clustering coefficients.
func LocalClusteringCoefficients(g *Graph) []float64 {
	return triangle.LocalClusteringCoefficients(g)
}

// GlobalClusteringCoefficient returns the transitivity 3τ/#wedges.
func GlobalClusteringCoefficient(g *Graph) float64 {
	return triangle.GlobalClusteringCoefficient(g)
}

// TrussDecomposition is the truss decomposition of an explicit graph.
type TrussDecomposition = truss.Decomposition

// DecomposeTruss peels an explicit undirected graph into its κ-trusses.
func DecomposeTruss(g *Graph) *TrussDecomposition { return truss.Decompose(g) }

// ---- the Kronecker product and its ground-truth formulas ----

// Product is the implicit Kronecker product C = F₀ ⊗ … ⊗ F_{k−1} of one
// or more factors; the paper's C = A ⊗ B is k = 2.
type Product = kron.Product

// NewProduct validates factors and returns the implicit product.
func NewProduct(factors ...*Graph) (*Product, error) { return kron.NewProduct(factors...) }

// MustProduct is NewProduct that panics on invalid factors.
func MustProduct(factors ...*Graph) *Product { return kron.MustProduct(factors...) }

// KroneckerPower returns B ⊗ B ⊗ … ⊗ B (k copies), the repeated-power
// construction of [3]; loop-free B gives τ = 6^{k-1}·τ(B)^k.
func KroneckerPower(b *Graph, k int) (*Product, error) { return kron.KroneckerPower(b, k) }

// VertexStat is a per-vertex product statistic in Kronecker-sum form,
// evaluated lazily: At(p) is O(#terms) regardless of product size.
type VertexStat = kron.KronVecSum

// EdgeStat is a per-edge product statistic in Kronecker-sum form. Each
// factor matrix is held aligned with its factor's arcs; At(p, q) reads one
// arc per factor and is 0 when (p, q) is not an arc of the product.
type EdgeStat = kron.KronMatSum

// FactorStats holds one factor's t, Δ, diag(B³), B∘B² and loop terms; Δ
// and B∘B² are aligned with the factor's arcs, one entry per arc at the
// position Graph.ArcIndex returns. For a loop-free factor B∘B² = Δ, so
// HadSquare is Delta, the same slice, and the loop terms are nil. They
// are memoized on the graph, once per graph however many products and
// calls read them, so they are shared and all of them are read-only.
type FactorStats = kron.FactorTriangleStats

// ComputeFactorStats returns an undirected graph's factor statistics. The
// first call for g runs the triangle engine once and reads every other
// quantity off its result and g's arcs (B² is never formed); every later
// call, and every closed form of every Product over g, returns that same
// object. The memo lives as long as g; a clone or transform of g is
// counted afresh.
func ComputeFactorStats(g *Graph) *FactorStats { return kron.ComputeFactorStats(g) }

// VertexParticipation returns the exact t_C for any undirected factors
// (all self-loop regimes; Thm. 1, Cor. 1 and the general expansion).
func VertexParticipation(p *Product) (*VertexStat, error) { return kron.VertexParticipation(p) }

// EdgeParticipation returns the exact Δ_C (Thm. 2, Cor. 2, general).
func EdgeParticipation(p *Product) (*EdgeStat, error) { return kron.EdgeParticipation(p) }

// TriangleTotal returns the exact τ(C) with overflow checking.
func TriangleTotal(p *Product) (int64, error) { return kron.TriangleTotal(p) }

// ProductWedgeCount returns the exact wedge count of C in O(n_A + n_B).
func ProductWedgeCount(p *Product) (int64, error) { return kron.WedgeCount(p) }

// ProductGlobalClustering returns the exact transitivity of C without
// materializing it.
func ProductGlobalClustering(p *Product) (float64, error) { return kron.GlobalClustering(p) }

// ProductLocalClustering returns an O(1)-per-query local clustering
// coefficient evaluator over all n_A·n_B product vertices.
func ProductLocalClustering(p *Product) (func(v int64) float64, error) {
	return kron.LocalClustering(p)
}

// OutDegrees returns d^out_C = d^out_A ⊗ d^out_B.
func OutDegrees(p *Product) *VertexStat { return kron.OutDegrees(p) }

// InDegrees returns d^in_C = d^in_A ⊗ d^in_B.
func InDegrees(p *Product) *VertexStat { return kron.InDegrees(p) }

// ---- validation (the paper's §VI workflow as a library) ----

// ValidationReport collects named check outcomes.
type ValidationReport = verify.Report

// ValidateFull materializes C (within limits) and cross-checks every
// applicable formula against structure-oblivious recomputation.
func ValidateFull(p *Product, maxVertices, maxArcs int64) (*ValidationReport, error) {
	return verify.Full(p, maxVertices, maxArcs)
}

// ValidateSampled spot-checks an arbitrarily large product by egonet and
// per-edge recounts.
func ValidateSampled(p *Product, vertexSamples, edgeSamples int, maxDegree int64, seed uint64) (*ValidationReport, error) {
	return verify.Sampled(p, vertexSamples, edgeSamples, maxDegree, seed)
}

// ---- directed and labeled censuses of the product ----

// DirVertexType is one of the 15 directed triangle types at a vertex
// (Fig. 4).
type DirVertexType = census.VertexType

// DirEdgeType is one of the 15 directed triangle types at an edge
// (Fig. 5).
type DirEdgeType = census.EdgeType

// LabelVertexType identifies a labeled triangle at a vertex (Fig. 6).
type LabelVertexType = census.LabelVertexType

// LabelEdgeType identifies a labeled triangle at an edge (Fig. 6).
type LabelEdgeType = census.LabelEdgeType

// AllDirVertexTypes lists the canonical directed vertex types.
func AllDirVertexTypes() []DirVertexType { return census.AllVertexTypes() }

// AllDirEdgeTypes lists the canonical directed edge types.
func AllDirEdgeTypes() []DirEdgeType { return census.AllEdgeTypes() }

// DirectedStats is the Kronecker-derived directed census of the product.
type DirectedStats = kron.DirectedStats

// DirectedCensus computes all 30 directed type statistics of C = A ⊗ B
// (Thm. 4 and Thm. 5: A loop-free, B undirected).
func DirectedCensus(p *Product) (*DirectedStats, error) { return kron.DirectedCensus(p) }

// DirectedVertexCensusOf computes the 15 per-vertex type counts of an
// explicit directed graph.
func DirectedVertexCensusOf(g *Graph) *census.VertexCensus {
	return census.DirectedVertexCensus(g)
}

// DirectedEdgeCensusOf computes the 15 per-edge type counts of an
// explicit directed graph, each aligned with g's arcs: one entry per arc,
// at the position Graph.ArcIndex returns, 0 on loop arcs.
func DirectedEdgeCensusOf(g *Graph) *census.EdgeCensus {
	return census.DirectedEdgeCensus(g)
}

// LabeledStats is the Kronecker-derived labeled census of the product.
type LabeledStats = kron.LabeledStats

// LabeledCensus computes all labeled type statistics of C = A ⊗ B
// (Thm. 6 and Thm. 7: A labeled loop-free undirected, B unlabeled).
func LabeledCensus(p *Product) (*LabeledStats, error) { return kron.LabeledCensus(p) }

// ---- truss ground truth (Thm. 3) ----

// ProductTrussDecomposition validates Thm. 3's hypotheses and returns the
// trussness of every edge of C as an edge statistic: At(u, v) is the
// largest κ with (u, v) in a κ-truss of C, 2 for an edge in no triangle
// and 0 off the edges.
func ProductTrussDecomposition(p *Product) (*EdgeStat, error) {
	return kron.Trussness(p)
}

// ---- egonets (the §VI validation device) ----

// Egonet is an induced neighborhood subgraph of one product vertex.
type Egonet = kron.Egonet

// ExtractEgonet builds the egonet of product vertex v without
// materializing C.
func ExtractEgonet(p *Product, v int64, maxDegree int64) (*Egonet, error) {
	return kron.ExtractEgonet(p, v, maxDegree)
}

// VerifyEgonet extracts an egonet and checks its center triangle count
// against the formula value.
func VerifyEgonet(p *Product, t *VertexStat, v int64, maxDegree int64) (*Egonet, error) {
	return kron.VerifyEgonet(p, t, v, maxDegree)
}

// ---- batched edge streaming (the unified generation pipeline) ----

// Arc is one directed product edge of the batched pipeline.
type Arc = stream.Arc

// ArcSink consumes batches of product arcs; see the composable sinks
// below and NewEdgeListSink/NewBinaryArcSink for serializers.
type ArcSink = stream.Sink

// CountingSink counts arcs; read N after streaming.
type CountingSink = stream.CountSink

// DedupCheckSink errors if the stream ever leaves strict canonical order
// (which also proves it is duplicate-free).
type DedupCheckSink = stream.DedupCheckSink

// DegreeHistogramSink accumulates the out-degree histogram of the
// stream's source vertices (complete after the stream flushes).
type DegreeHistogramSink = stream.DegreeHistogramSink

// MultiSink fans each batch out to several sinks, so one generation pass
// can write, count, and check simultaneously.
type MultiSink = stream.MultiSink

// SinkFunc adapts a function to an ArcSink with a no-op Flush.
type SinkFunc = stream.FuncSink

// NewEdgeListSink returns an ArcSink serializing arcs as "u\tv\n" lines
// via batched table-driven encoding (no per-arc formatting). Output is
// buffered until Flush: w receives writes of at least 256 KiB, and the
// rest when the sink is flushed, as Stream and WriteShards do at the end.
func NewEdgeListSink(w io.Writer) ArcSink { return gio.NewArcTextWriter(w) }

// NewBinaryArcSink returns an ArcSink serializing arcs as little-endian
// (uint64, uint64) pairs, 16 bytes per arc. Output is buffered until
// Flush: w receives writes of at least 256 KiB, and the rest when the
// sink is flushed, as Stream and WriteShards do at the end.
func NewBinaryArcSink(w io.Writer) ArcSink { return gio.NewArcBinaryWriter(w) }

// ReadTextArcs parses an arc stream written by an edge-list sink back
// into arcs (comments and blank lines skipped).
func ReadTextArcs(r io.Reader) ([]Arc, error) { return gio.ReadArcsText(r) }

// ReadBinaryArcs parses an arc stream written by a binary arc sink. A
// trailing partial record is a truncation error, never a short list.
func ReadBinaryArcs(r io.Reader) ([]Arc, error) { return gio.ReadArcsBinary(r) }

// ShardManifest describes a WriteShards output directory: source
// identity, partition, and per-shard arc counts.
type ShardManifest = distgen.Manifest

// ReadShardManifest parses the manifest.json of a WriteShards directory.
func ReadShardManifest(dir string) (*ShardManifest, error) { return distgen.ReadManifest(dir) }

// ---- model-agnostic random-model generation ----

// ModelGenerator is a registered random graph model expressed as a
// communication-free sharded arc stream in the two-phase
// Sample/Enumerate shape: raw randomness lives in cells any worker
// regenerates from (seed, cell) alone, and chunk enumeration may
// recompute foreign cells (rgg neighbor grids) or retrace per-edge
// hash chains (ba) instead of communicating, so the concatenated
// stream is byte-identical for every worker count — the same invariant
// the Kronecker pipeline has, extended to Erdős–Rényi, G(n, m), R-MAT,
// Chung–Lu, random geometric graphs (2D/3D), Barabási–Albert, random
// hyperbolic graphs and wraparound lattices (grid2d/grid3d). MODELS.md
// documents every registered kind's spec grammar and guarantees.
type ModelGenerator = model.Generator

// NewGenerator builds a model generator from a spec string, e.g.
// "er:n=100000,p=0.001,seed=42", "rgg2d:n=100000,r=0.005" or
// "ba:n=100000,d=4" (the KaGen-style "rgg2d(n=100000;r=0.005)" form is
// accepted as an alias). Every generator's Name() is a spec that
// reproduces its exact stream.
func NewGenerator(spec string) (ModelGenerator, error) { return model.New(spec) }

// ModelKinds lists the registered model kinds.
func ModelKinds() []string { return model.Kinds() }

// ---- CSR ingestion (the consumption side of the pipeline) ----

// CSRGraph is a materialized product adjacency in compressed-sparse-row
// form over int64 product vertex ids: sorted, duplicate-free neighbor
// slices in one flat backing array. It supports O(log d) arc probes,
// O(1) degree reads, parallel transpose/in-degree construction, and
// streaming back out as canonical Arc batches.
type CSRGraph = csr.Graph

// CSRSink accumulates one canonical-order arc stream into a CSRGraph in
// a single pass (no sort — canonical order assembles by appending). Use
// it to ingest non-replayable streams such as files or pipes; for
// replayable Sources ToCSR's two-pass builder is faster.
type CSRSink = csr.Sink

// NewCSRSink returns a one-pass CSR accumulator for vertex ids in
// [0, numVertices); arcsHint pre-sizes the arc array (0 if unknown).
// After the stream flushes, call Graph() for the result.
func NewCSRSink(numVertices, arcsHint int64) *CSRSink { return csr.NewSink(numVertices, arcsHint) }

// WriteCSR serializes a CSRGraph in the one-block binary format
// (KRONCSR1): header, offsets, then the flat arc array.
func WriteCSR(w io.Writer, g *CSRGraph) error { return gio.WriteCSR(w, g) }

// ReadCSR deserializes a CSRGraph written by WriteCSR, rejecting
// truncated or structurally corrupt input.
func ReadCSR(r io.Reader) (*CSRGraph, error) { return gio.ReadCSR(r) }

// CSRDigest fingerprints a CSRGraph with the same FNV-1a scheme as
// GraphDigest over factor graphs, so the two agree on any unlabeled
// graph representable both ways. Digest equality across worker counts is
// the machine-checked determinism invariant of the ingestion pipeline.
func CSRDigest(g *CSRGraph) string { return gio.CSRDigest(g) }

// ---- I/O ----

// WriteEdgeList writes a graph's arcs as TSV.
func WriteEdgeList(w io.Writer, g *Graph) error { return gio.WriteEdgeList(w, g) }

// ReadEdgeList parses a TSV edge list on n vertices.
func ReadEdgeList(r io.Reader, n int, symmetrize bool) (*Graph, error) {
	return gio.ReadEdgeList(r, n, symmetrize)
}

// WriteGraphBinary serializes a factor graph compactly: the whole point
// of the Kronecker approach is that shipping factors (MBs) ships the
// product (up to ~10^18 edges).
func WriteGraphBinary(w io.Writer, g *Graph) error { return gio.WriteGraphBinary(w, g) }

// ReadGraphBinary deserializes a factor written by WriteGraphBinary.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return gio.ReadGraphBinary(r) }

// GraphStats is a JSON-serializable summary row (the §VI table format).
type GraphStats = gio.GraphStats

// ---- distribution analysis (§III.A) ----

// Histogram is an integer-value histogram with Kronecker composition.
type Histogram = stats.Histogram

// NewHistogram builds a histogram from values.
func NewHistogram(values []int64) *Histogram { return stats.NewHistogram(values) }

// KronHistogram composes two histograms into the histogram of the
// Kronecker product of their samples — degree distributions of C without
// touching n_C values.
func KronHistogram(hu, hv *Histogram) *Histogram { return stats.KronHistogram(hu, hv) }

// MaxDegreeRatio returns ‖d‖∞/n (the quantity §III.A shows is squared by
// the product).
func MaxDegreeRatio(degrees []int64) float64 { return stats.MaxDegreeRatio(degrees) }

// HillEstimator estimates a heavy-tail exponent from the k largest
// observations.
func HillEstimator(values []int64, k int) float64 { return stats.HillEstimator(values, k) }

// ---- generation service (content-addressed cache + job server) ----

// GenService is the long-running generation service: an HTTP JSON API
// that validates model specs, schedules generation jobs on a bounded
// worker pool with per-job cancellation and queue-depth admission
// control, and serves results out of a content-addressed shard cache
// (deterministic generation makes a canonical spec string a complete
// address for its stream). Mount Handler() on an http.Server and Close
// on shutdown; cmd/genserve is the standalone binary.
type GenService = serve.Server

// GenServiceConfig tunes the generation service: cache directory and
// byte budget, worker-pool and queue sizes, and generation parallelism.
type GenServiceConfig = serve.Config

// GenJob is the JSON view of one service job (state, progress, cache
// provenance, result location).
type GenJob = serve.JobView

// NewGenService opens (or recovers) the shard cache under cfg.Dir and
// starts the service's worker pool.
func NewGenService(cfg GenServiceConfig) (*GenService, error) { return serve.NewServer(cfg) }

// GenCacheKey returns the content address of one canonical arc stream
// in one serialization format ("tsv" or "binary"): sha256 over the
// format and the generator's canonical Name(). Spec spellings that
// parse to the same generator share an address; formats do not.
func GenCacheKey(name, format string) string { return serve.CacheKey(name, format) }
