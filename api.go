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
	"kronvalid/internal/sparse"
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

// Matrix is a CSR sparse integer matrix, the language the paper's
// formulas are stated in. Statistics matrices (Δ_A, censuses) use it.
type Matrix = sparse.Matrix

// ---- generators ----

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

// GNM returns G(n, m) — exactly m distinct edges — deterministic in seed.
func GNM(n int, m int64, seed uint64) *Graph { return gen.GNM(n, m, seed) }

// BarabasiAlbert returns an n-vertex preferential-attachment graph with
// up to m edges per arrival, built on the communication-free retracing
// core (model kind "ba") — the explicit-graph adapter of the streamed
// generator.
func BarabasiAlbert(n, m int, seed uint64) *Graph { return gen.BarabasiAlbert(n, m, seed) }

// RGG2D returns the random geometric graph on the unit square: n uniform
// points, an edge for every pair within Euclidean distance r. The
// explicit-graph adapter of the streamed cell-grid generator (model kind
// "rgg2d").
func RGG2D(n int64, r float64, seed uint64) (*Graph, error) {
	return gen.FromModel(model.NewRGG(n, r, 2, seed, 0))
}

// RGG3D is RGG2D on the unit cube (model kind "rgg3d").
func RGG3D(n int64, r float64, seed uint64) (*Graph, error) {
	return gen.FromModel(model.NewRGG(n, r, 3, seed, 0))
}

// RHG returns the random hyperbolic graph: n points in a hyperbolic
// disk whose radius is solved for target average degree deg, with
// radial density set by the power-law exponent gamma (> 2), and an
// edge for every pair within hyperbolic distance R. The explicit-graph
// adapter of the streamed band/cell generator (model kind "rhg").
func RHG(n int64, deg, gamma float64, seed uint64) (*Graph, error) {
	return gen.FromModel(model.NewRHG(n, deg, gamma, seed, 0))
}

// Grid2D returns the x×y lattice with each lattice edge kept
// independently with probability p; wrap adds the per-axis wraparound
// (torus) edges. The explicit-graph adapter of the streamed
// geometric-skip generator (model kind "grid2d").
func Grid2D(x, y int64, p float64, wrap bool, seed uint64) (*Graph, error) {
	return gen.FromModel(model.NewGrid(x, y, 1, p, wrap, 2, seed, 0))
}

// Grid3D is Grid2D for the x×y×z lattice (model kind "grid3d").
func Grid3D(x, y, z int64, p float64, wrap bool, seed uint64) (*Graph, error) {
	return gen.FromModel(model.NewGrid(x, y, z, p, wrap, 3, seed, 0))
}

// WebGraph returns a scale-free graph with triad closure (probability pt
// per attachment): the offline stand-in for the paper's web-NotreDame
// factor.
func WebGraph(n, m int, pt float64, seed uint64) *Graph { return gen.WebGraph(n, m, pt, seed) }

// RMAT returns a stochastic-Kronecker (R-MAT) graph: the Rem. 1 baseline.
func RMAT(scale int, edges int64, a, b, c, d float64, seed uint64) *Graph {
	return gen.RMAT(scale, edges, a, b, c, d, seed)
}

// Graph500RMAT returns an R-MAT graph with Graph500 parameters.
func Graph500RMAT(scale int, seed uint64) *Graph { return gen.Graph500RMAT(scale, seed) }

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

// Product is the implicit Kronecker product C = A ⊗ B.
type Product = kron.Product

// NewProduct validates factors and returns the implicit product.
func NewProduct(a, b *Graph) (*Product, error) { return kron.NewProduct(a, b) }

// MustProduct is NewProduct that panics on invalid factors.
func MustProduct(a, b *Graph) *Product { return kron.MustProduct(a, b) }

// VertexStat is a per-vertex product statistic in Kronecker-sum form,
// evaluated lazily: At(p) is O(#terms) regardless of product size.
type VertexStat = kron.KronVecSum

// EdgeStat is a per-edge product statistic in Kronecker-sum form.
type EdgeStat = kron.KronMatSum

// FactorStats holds one factor's t, Δ, diag(B³), B∘B² and loop terms. A
// Product computes its factors' statistics itself, once each, on the first
// formula that needs them; they are shared and must not be modified.
type FactorStats = kron.FactorTriangleStats

// ComputeFactorStats runs the triangle engine once on an undirected factor
// and reads every other quantity off its result and the factor's arcs; B²
// is never formed. Needed only for a factor that is not in a Product.
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

// ---- k-fold products (the repeated-power construction of [3]) ----

// MultiProduct is the k-fold implicit product B_1 ⊗ … ⊗ B_k.
type MultiProduct = kron.MultiProduct

// NewMultiProduct validates factors and returns the k-fold product.
func NewMultiProduct(factors ...*Graph) (*MultiProduct, error) {
	return kron.NewMultiProduct(factors...)
}

// KroneckerPower returns B ⊗ B ⊗ … ⊗ B (k copies).
func KroneckerPower(b *Graph, k int) (*MultiProduct, error) { return kron.KroneckerPower(b, k) }

// MultiVertexStat is a per-vertex statistic of a k-fold product.
type MultiVertexStat = kron.MultiVecSum

// MultiVertexParticipation returns t_C for a k-fold product (all
// self-loop regimes).
func MultiVertexParticipation(p *MultiProduct) (*MultiVertexStat, error) {
	return kron.MultiVertexParticipation(p)
}

// MultiTriangleTotal returns exact τ of a k-fold product; loop-free
// factors give 6^{k-1}·Π τ(B_i).
func MultiTriangleTotal(p *MultiProduct) (int64, error) { return kron.MultiTriangleTotal(p) }

// MultiEdgeDelta returns a per-arc Δ_C evaluator for a k-fold product.
func MultiEdgeDelta(p *MultiProduct) (func(u, v int64) int64, error) {
	return kron.MultiEdgeDelta(p)
}

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

// DirectedEdgeCensusOf computes the 15 per-edge type count matrices of an
// explicit directed graph.
func DirectedEdgeCensusOf(g *Graph) *census.EdgeCensus {
	return census.DirectedEdgeCensus(g)
}

// LabeledStats is the Kronecker-derived labeled census of the product.
type LabeledStats = kron.LabeledStats

// LabeledCensus computes all labeled type statistics of C = A ⊗ B
// (Thm. 6 and Thm. 7: A labeled loop-free undirected, B unlabeled).
func LabeledCensus(p *Product) (*LabeledStats, error) { return kron.LabeledCensus(p) }

// ---- truss ground truth (Thm. 3) ----

// ProductTruss is the implicit truss decomposition of C under Δ_B ≤ 1.
type ProductTruss = kron.ProductTruss

// ProductTrussDecomposition validates Thm. 3's hypotheses and returns the
// implicit decomposition.
func ProductTrussDecomposition(p *Product) (*ProductTruss, error) {
	return kron.TrussDecomposition(p)
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
// via batched table-driven encoding (no per-arc formatting).
func NewEdgeListSink(w io.Writer) ArcSink { return gio.NewArcTextWriter(w) }

// NewBinaryArcSink returns an ArcSink serializing arcs as little-endian
// (uint64, uint64) pairs, 16 bytes per arc.
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
