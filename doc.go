// Package kronvalid generates extreme-scale non-stochastic Kronecker
// product graphs together with exact, per-vertex and per-edge ground-truth
// triangle statistics, reproducing "On Large-Scale Graph Generation with
// Validation of Diverse Triangle Statistics at Edges and Vertices"
// (Sanders, Pearce, La Fond, Kepner; 2018, arXiv:1803.09021).
//
// # The idea
//
// Given two modest factor graphs with adjacency matrices A and B, the
// Kronecker product C = A ⊗ B has |E_A|·|E_B| edges but is completely
// described by the factors: a trillion-edge benchmark graph fits in a few
// megabytes and can be streamed, sharded, or queried edge-by-edge. The
// paper's contribution — and this library's core — is that many expensive
// triangle statistics of C have exact closed forms over the factors:
//
//	t_C = 2·t_A ⊗ t_B                  triangle participation per vertex (Thm. 1)
//	Δ_C = Δ_A ⊗ Δ_B                    triangle participation per edge   (Thm. 2)
//	τ(C) = 6·τ(A)·τ(B)                 total triangles
//
// with generalizations for self loops (Cor. 1/2 and the §III expansions),
// for all 15 directed triangle types (Thm. 4/5), for vertex-labeled
// triangle types (Thm. 6/7), and for the truss decomposition under a
// Δ_B ≤ 1 factor (Thm. 3). A graph-analytics implementation can therefore
// be validated at scales where recomputing the answer is impossible.
//
// # Quick start
//
//	a := kronvalid.WebGraph(1<<15, 4, 0.7, 42)       // scale-free factor
//	p := kronvalid.MustProduct(a, a)                  // implicit C = A ⊗ A, ~10^9 vertices
//	t, _ := kronvalid.VertexParticipation(p)          // exact t_C, lazily evaluated
//	total, _ := kronvalid.TriangleTotal(p)            // exact τ(C)
//
// The product counts triangles once on each factor, on the first formula
// that needs it; every closed form after that is a lookup into the same
// per-factor statistics (DESIGN.md §1, "Factor statistics").
//
// # The unified Source pipeline
//
// Every generator — Kronecker products and the classical random models
// (Erdős–Rényi, G(n,m), R-MAT, Chung–Lu, random geometric 2D/3D,
// Barabási–Albert, random hyperbolic, 2D/3D lattices with optional
// wraparound; see MODELS.md) — is one Source: a set of communication-free,
// replayable shards whose concatenation is the canonical edge stream,
// byte-identical for every worker count. One verb set drives any Source,
// with a context for cancellation and functional options for tuning:
//
//	ctx := context.Background()
//	src := kronvalid.ProductSource(p, 16)             // or: kronvalid.ModelSource(g, 16)
//
//	// Stream the edges through the parallel pipeline:
//	var n kronvalid.CountingSink
//	kronvalid.Stream(ctx, src, &n)
//
//	// Shard them to disk with a reproducibility manifest recording the
//	// source's identity (Name()); aborts leave no manifest behind:
//	kronvalid.WriteShards(ctx, "out/", src, kronvalid.WithBinary(true))
//
//	// Materialize CSR adjacency — two-pass parallel builder by default,
//	// one-pass ordered accumulation via WithTwoPass(false), identical
//	// results either way:
//	g, _ := kronvalid.ToCSR(ctx, src, kronvalid.WithWorkers(8))
//
//	// Count and fingerprint without materializing anything; the digest
//	// equals CSRDigest of the materialized graph:
//	arcs, _ := kronvalid.Count(ctx, src)
//	d, _ := kronvalid.Digest(ctx, src)
//	_, _, _ = g, arcs, d
//
//	// Random models come from spec strings; the same verbs apply.
//	er, _ := kronvalid.NewGenerator("er:n=100000,p=0.001,seed=42")
//	kronvalid.Stream(ctx, kronvalid.ModelSource(er, 0), &n,
//		kronvalid.WithProgress(func(arcs, shards int64) { /* report */ }))
//
// Long generations are cancellable mid-shard: cancelling the context
// stops the pipeline within one batch, joins every worker, and returns
// ctx.Err(). These five verbs are the only generation entry points;
// DESIGN.md §3 describes the Source contract and the drivers under them.
//
// See README.md for a package map, the examples directory for runnable
// programs, and DESIGN.md / EXPERIMENTS.md for the paper-reproduction
// index and recorded results.
package kronvalid
