package kron

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kronvalid/internal/graph"
	"kronvalid/internal/spec"
)

// benchFactors are the kron-truth benchmark's factors at its default
// -seed 1.
var benchFactors = []struct {
	spec                           string
	tau, wedgeChecks, nnzD, nnzHad int64
	diagCubeFNV                    uint64
}{
	{"web:n=16384,m=4,seed=1000", 35921, 346445, 112492, 112492, 0x14b8f0891e9926f0},
	{"web:n=16384,m=4,seed=1001", 36033, 345419, 112558, 112558, 0x2f69157d3a1a3e07},
}

func mustFactor(tb testing.TB, s string) *graph.Graph {
	tb.Helper()
	g, err := spec.Parse(s)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// fnvVec is the FNV-1a hash of v's little-endian bytes.
func fnvVec(v []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestBenchFactorStatsPinned pins the statistics of the benchmark's
// factors, recorded before the triangle engine counted per slot: τ, the
// traced wedge checks (691 864 together), nnz(Δ), nnz(G∘G²) and
// diag(G³). The CI race step runs it at -cpu 1,2,4, where the engine's
// slot counters are shared by the workers.
func TestBenchFactorStatsPinned(t *testing.T) {
	for _, f := range benchFactors {
		st := ComputeFactorStats(mustFactor(t, f.spec))
		got := [4]int64{st.Total, st.WedgeChecks, nnz(st.Delta), nnz(st.HadSquare)}
		if want := [4]int64{f.tau, f.wedgeChecks, f.nnzD, f.nnzHad}; got != want {
			t.Errorf("%s: (τ, wedge checks, nnz Δ, nnz G∘G²) = %v, pinned %v", f.spec, got, want)
		}
		if h := fnvVec(st.DiagCube); h != f.diagCubeFNV {
			t.Errorf("%s: diag(G³) hashes to %#x, pinned %#x", f.spec, h, f.diagCubeFNV)
		}
	}
}

// BenchmarkComputeFactorStats times the factor-statistics pass on one
// kron-truth factor: the uncached count, as ComputeFactorStats would
// answer every iteration after the first from the graph's memo.
func BenchmarkComputeFactorStats(b *testing.B) {
	g := mustFactor(b, benchFactors[0].spec)
	for b.Loop() {
		computeFactorStats(g)
	}
}
