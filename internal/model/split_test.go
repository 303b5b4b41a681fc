package model

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestExpandPrefixMatchesDescents is the machine-checked form of the
// order-freedom argument behind expandPrefix (DESIGN.md §2e): whatever
// order the subtrees are expanded in, and on however many goroutines,
// the table and its occupancy bitmap equal what plain root descents —
// one independent prefix(c) / count(c) per slot — compute. The three
// tree shapes are the three ways the package weights a tree; the slot
// and total edge cases are where a cut at the grain, a pruned subtree
// or an odd split could go wrong.
func TestExpandPrefixMatchesDescents(t *testing.T) {
	rhg, err := NewRHG(20000, 8, 2.6, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rhg.cells < 1<<12+1 {
		t.Fatalf("rhg tree has %d cells, too few for the largest slot count", rhg.cells)
	}
	tri := func(c int) int64 { return int64(c) * int64(c+1) / 2 }
	shapes := []struct {
		name string
		tree splitTree
	}{
		{"uniform", splitTree{seed: 5, ns: nsRGGSplit,
			weight: func(lo, hi int) int64 { return int64(hi - lo) }}},
		// The real band-weighted tree, cut to a prefix of its cells
		// (the weight function stays exactly additive on any prefix).
		{"skewed", rhg.tree},
		// Slot c has capacity 1000·(c+1), so the largest total below
		// fits the smallest tree and the clamps are reachable.
		{"capacitated", splitTree{seed: 7, ns: nsGnmSplit, capacitated: true,
			weight: func(lo, hi int) int64 { return 1000 * (tri(hi) - tri(lo)) }}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range shapes {
		for _, slots := range []int{1, 2, 251, 1<<12 + 1} {
			for _, total := range []int64{0, 1, 50*int64(slots) + 7} {
				tr := sh.tree
				tr.slots, tr.total = slots, total
				name := fmt.Sprintf("%s slots=%d total=%d", sh.name, slots, total)
				want := make([]int64, slots+1)
				for c := 0; c <= slots; c++ {
					want[c] = tr.prefix(c)
				}
				for c := 0; c < slots; c++ {
					if n := tr.count(c); n != want[c+1]-want[c] {
						t.Fatalf("%s: count(%d) = %d, prefix differences say %d", name, c, n, want[c+1]-want[c])
					}
				}
				for _, procs := range []int{1, 8} {
					runtime.GOMAXPROCS(procs)
					got, occ := tr.expandPrefix()
					if len(got) != slots+1 || len(occ) != (slots+63)/64 {
						t.Fatalf("%s procs=%d: table %d, bitmap %d words", name, procs, len(got), len(occ))
					}
					for c := 0; c <= slots; c++ {
						if got[c] != want[c] {
							t.Fatalf("%s procs=%d: table[%d] = %d, prefix(%d) = %d", name, procs, c, got[c], c, want[c])
						}
					}
					for c := 0; c < slots; c++ {
						if bit := occ[c>>6]>>(uint(c)&63)&1 == 1; bit != (want[c+1] != want[c]) {
							t.Fatalf("%s procs=%d: occupancy bit %d is %v, slot holds %d", name, procs, c, bit, want[c+1]-want[c])
						}
					}
				}
			}
		}
	}
}

// BenchmarkCellTable times what a spatial generator pays once per
// lifetime and BenchmarkKernels never sees: the cell table of the three
// geo-bin spatial specs (bench/names.go, seeds as -seed 1 derives
// them), on a fresh generator per iteration so the sync.Once cannot
// amortise it over b.N. Run it with -cpu 1,2 (or up to the host's
// cores): ns/cell at -cpu 1 is the serial expansion, the ratio between
// the rows is what the parallel one buys.
func BenchmarkCellTable(b *testing.B) {
	for _, spec := range []string{
		"rgg2d:n=3000000,r=0.001,seed=1001",
		"rgg3d:n=1000000,r=0.0097,seed=1002",
		"rhg:n=700000,d=16,gamma=2.9,seed=1003",
	} {
		b.Run(spec[:strings.IndexByte(spec, ':')], func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := New(spec)
				if err != nil {
					b.Fatal(err)
				}
				tree, ctab := spatialTable(g)
				b.StartTimer()
				if ctab.get(tree) == nil {
					b.Fatalf("%s: %d cells are over the table gate", spec, tree.slots)
				}
				cells = tree.slots
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
