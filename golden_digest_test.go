package kronvalid

import (
	"context"
	"testing"
)

// TestGoldenModelDigests pins the canonical byte stream of every model
// kind to a hard-coded digest. The stream contract says worker count,
// batching, and internal algorithm changes must never move a byte, so
// these values only change when a model's stream is *deliberately*
// re-pinned — any other mismatch is a silent format break that would
// invalidate every digest users have recorded.
//
// History: the rmat digest was re-pinned twice. First when
// sample-sort-dedup within a chunk was replaced by the in-order
// multinomial descent (same distribution, same per-chunk budgets,
// different realization). Then when that descent went from one binary
// split per level to aligned four-level blocks — nodes of at most 256
// edges draw each edge's block pattern from an alias table whose
// outcome law is the product of the per-level laws, larger nodes keep
// per-level BinomialFixed splits — and the chunk budgets moved from
// rng.Binomial to rng.BinomialFixed (same multinomial leaf law up to the
// 2^-53 quantisation of the thresholds; the level-by-level descent is
// the oracle of TestRMATBlockedMatchesDescentLaw). The
// chunglu digest was re-pinned once, when the bucketed per-candidate
// sweep was replaced by the blockwise core (same per-pair Bernoulli
// law, realized as binomial counts over constant-probability regions;
// the old core is retained as a distribution-equivalence oracle). The
// rgg2d, rgg3d, rhg and gnm digests were re-pinned once, together, when
// every split-tree node switched from rng.Binomial to rng.BinomialFixed
// (same Binomial(m, p) law per node, so the same multinomial occupancy
// law: m ≤ 64 items become m threshold trials at the probability of
// Float64() < p, larger m the zig-zag sampler Binomial itself uses once
// m·min(p, 1−p) > 256; so gnm moves only at nodes under that bound,
// where Binomial counted geometric skips; Binomial stays in the tree as
// the oracle of TestSplitDrawLaw). Every re-pin followed the re-pin
// policy in DESIGN.md ("Digest re-pin policy").
func TestGoldenModelDigests(t *testing.T) {
	golden := map[string]string{
		"er:n=2000,p=0.004,seed=42":               "514a7a0afaa5dd2a",
		"gnm:n=1500,m=9000,seed=11":               "45528680323d7cda",
		"gnm:n=600,m=150000,seed=5":               "83a6c35b5acf9beb", // dense: every chunk samples its complement
		"rmat:scale=11,edges=16384,seed=13":       "ec4673c0fee126b6",
		"chunglu:n=3000,dmax=60,gamma=2.4,seed=5": "bf2940fc9febf01a",
		// Tail triangle past 2^23 pairs: full segments, whose counts
		// share one prepared zig-zag set-up.
		"chunglu:n=200000,dmin=30,dmax=3000,gamma=2.1,seed=9": "4786bfeded01e0f7",
		"rgg2d:n=2500,r=0.03,seed=9":                          "5c111d23ee43a94a",
		"rgg3d:n=1200,r=0.09,seed=4":                          "89ce731464bf5a37",
		"ba:n=2000,d=3,seed=15":                               "a1da37efe7efb116",
		"rhg:n=1800,d=8,gamma=2.6,seed=21":                    "65ab630e7c70ed2",
		"grid2d:x=45,y=40,p=0.55,wrap=true,seed=22":           "9643aa456dd24c0d",
		"grid3d:x=11,y=10,z=9,p=0.5,wrap=true,seed=23":        "cf0457c98460db27",
	}
	ctx := context.Background()
	for spec, want := range golden {
		g, err := NewGenerator(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// Multiple workers on purpose: the digest must be identical no
		// matter how the chunk plan is executed.
		got, err := Digest(ctx, ModelSource(g, 4))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got != want {
			t.Errorf("%s: digest %q, want pinned %q — the canonical stream moved", spec, got, want)
		}
	}
}

// TestGoldenGridDigests pins the lattice kernel's map from kept
// candidate index back to source vertex, recorded before that map became
// a forward walk with a binary-search fallback: p=0.001 lives in the
// fallback, p=0.5 and 0.8 in the walk, 0.05 crosses between them, p=1
// draws nothing; wrap=false leaves candidate-free vertices to step over,
// and seven chunks start the cursor mid-lattice.
func TestGoldenGridDigests(t *testing.T) {
	golden := map[string]string{
		"grid2d:x=300,y=200,p=0.001,wrap=false,seed=31,chunks=1":    "1737e22430ca817e",
		"grid2d:x=300,y=200,p=0.001,wrap=false,seed=31,chunks=7":    "1b59492c1c29b242",
		"grid2d:x=300,y=200,p=0.001,wrap=true,seed=31,chunks=1":     "133b8acd0a8519dc",
		"grid2d:x=300,y=200,p=0.001,wrap=true,seed=31,chunks=7":     "137453cd71644c4",
		"grid2d:x=300,y=200,p=0.05,wrap=false,seed=31,chunks=1":     "98350fc5761b06a7",
		"grid2d:x=300,y=200,p=0.05,wrap=false,seed=31,chunks=7":     "a4cf0619e0f97b07",
		"grid2d:x=300,y=200,p=0.05,wrap=true,seed=31,chunks=1":      "eeabeb3cd800b910",
		"grid2d:x=300,y=200,p=0.05,wrap=true,seed=31,chunks=7":      "ab941c7336aebba8",
		"grid2d:x=300,y=200,p=0.5,wrap=false,seed=31,chunks=1":      "b4973de7b0fad161",
		"grid2d:x=300,y=200,p=0.5,wrap=false,seed=31,chunks=7":      "a6ca22a0a00dc732",
		"grid2d:x=300,y=200,p=0.5,wrap=true,seed=31,chunks=1":       "b77d8ff723695f0f",
		"grid2d:x=300,y=200,p=0.5,wrap=true,seed=31,chunks=7":       "20adff626f27161a",
		"grid2d:x=300,y=200,p=0.8,wrap=false,seed=31,chunks=1":      "9135792f0e12c621",
		"grid2d:x=300,y=200,p=0.8,wrap=false,seed=31,chunks=7":      "ab81b79d3a8e03c5",
		"grid2d:x=300,y=200,p=0.8,wrap=true,seed=31,chunks=1":       "393725b316380a3a",
		"grid2d:x=300,y=200,p=0.8,wrap=true,seed=31,chunks=7":       "570dc9e5d9b9afda",
		"grid2d:x=300,y=200,p=1,wrap=false,seed=31,chunks=1":        "e97b71916d53c92f",
		"grid2d:x=300,y=200,p=1,wrap=false,seed=31,chunks=7":        "e97b71916d53c92f",
		"grid2d:x=300,y=200,p=1,wrap=true,seed=31,chunks=1":         "4a08329c7e347422",
		"grid2d:x=300,y=200,p=1,wrap=true,seed=31,chunks=7":         "4a08329c7e347422",
		"grid3d:x=40,y=30,z=25,p=0.001,wrap=false,seed=31,chunks=1": "465e5df360bfdd5e",
		"grid3d:x=40,y=30,z=25,p=0.001,wrap=false,seed=31,chunks=7": "e1771248debd4724",
		"grid3d:x=40,y=30,z=25,p=0.001,wrap=true,seed=31,chunks=1":  "bf0934594059044a",
		"grid3d:x=40,y=30,z=25,p=0.001,wrap=true,seed=31,chunks=7":  "aae4fd5f3ac4b33f",
		"grid3d:x=40,y=30,z=25,p=0.05,wrap=false,seed=31,chunks=1":  "320e78bf60374c55",
		"grid3d:x=40,y=30,z=25,p=0.05,wrap=false,seed=31,chunks=7":  "4ad003edc8b10656",
		"grid3d:x=40,y=30,z=25,p=0.05,wrap=true,seed=31,chunks=1":   "a0a14f1e82d508ad",
		"grid3d:x=40,y=30,z=25,p=0.05,wrap=true,seed=31,chunks=7":   "fdb70d99d24ed10f",
		"grid3d:x=40,y=30,z=25,p=0.5,wrap=false,seed=31,chunks=1":   "2c2df961e24aa610",
		"grid3d:x=40,y=30,z=25,p=0.5,wrap=false,seed=31,chunks=7":   "eb8259d8297e2227",
		"grid3d:x=40,y=30,z=25,p=0.5,wrap=true,seed=31,chunks=1":    "19d18d4a50466eee",
		"grid3d:x=40,y=30,z=25,p=0.5,wrap=true,seed=31,chunks=7":    "1a2734be34f02e85",
		"grid3d:x=40,y=30,z=25,p=0.8,wrap=false,seed=31,chunks=1":   "a1d9eba098e3ff4b",
		"grid3d:x=40,y=30,z=25,p=0.8,wrap=false,seed=31,chunks=7":   "c8f1019cdb111442",
		"grid3d:x=40,y=30,z=25,p=0.8,wrap=true,seed=31,chunks=1":    "2a9231d02333fa12",
		"grid3d:x=40,y=30,z=25,p=0.8,wrap=true,seed=31,chunks=7":    "dc92b55faa89dda0",
		"grid3d:x=40,y=30,z=25,p=1,wrap=false,seed=31,chunks=1":     "4214ea74741294a7",
		"grid3d:x=40,y=30,z=25,p=1,wrap=false,seed=31,chunks=7":     "4214ea74741294a7",
		"grid3d:x=40,y=30,z=25,p=1,wrap=true,seed=31,chunks=1":      "7a03a33c6b1b4a82",
		"grid3d:x=40,y=30,z=25,p=1,wrap=true,seed=31,chunks=7":      "7a03a33c6b1b4a82",
	}
	for spec, want := range golden {
		g, err := NewGenerator(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got, err := Digest(context.Background(), ModelSource(g, 3))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got != want {
			t.Errorf("%s: digest %q, want pinned %q — the canonical stream moved", spec, got, want)
		}
	}
}
