package kronvalid

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
)

// modelAllocRows holds one small spec per registered model kind and the
// allocations one serial pass over it made when the row was recorded.
// TestModelStreamAllocs fails when a pass allocates more than 20 % above
// that count; TestModelReferenceCoversRegistry fails when a kind has no
// row. After a change that saves allocations, lower the count so the
// saving stays.
var modelAllocRows = map[string]struct {
	spec   string
	allocs int
}{
	"ba":      {"ba:n=20000,d=4,seed=7", 19},
	"chunglu": {"chunglu:n=20000,dmax=120,gamma=2.5,seed=42", 27},
	"er":      {"er:n=20000,p=0.0008,seed=42", 16},
	"gnm":     {"gnm:n=20000,m=80000,seed=42", 22},
	"grid2d":  {"grid2d:x=200,y=150,p=0.6,wrap=true,seed=42", 16},
	"grid3d":  {"grid3d:x=30,y=30,z=30,p=0.6,wrap=true,seed=42", 16},
	"rgg2d":   {"rgg2d:n=20000,r=0.01,seed=42", 33},
	"rgg3d":   {"rgg3d:n=20000,r=0.05,seed=42", 36},
	"rhg":     {"rhg:n=20000,d=8,gamma=2.9,seed=42", 59},
	"rmat":    {"rmat:scale=12,edges=65536,seed=7", 81},
}

// TestModelStreamAllocs is the allocation gate for the model kernels:
// every kind's spec streamed into a CountingSink by one worker, counted
// with testing.AllocsPerRun. The generator is built outside the count
// and AllocsPerRun's warm-up pass absorbs one-time set-up (the spatial
// kinds' cell table), so what is counted is chunk generation and the
// stream pipeline. AllocsPerRun runs at GOMAXPROCS 1 and the pass uses
// one worker, so the count does not depend on the host's core count.
func TestModelStreamAllocs(t *testing.T) {
	ctx := context.Background()
	for _, kind := range ModelKinds() {
		row, ok := modelAllocRows[kind]
		if !ok {
			t.Errorf("registered kind %q has no modelAllocRows entry", kind)
			continue
		}
		if !strings.HasPrefix(row.spec, kind+":") {
			t.Errorf("modelAllocRows[%q] spec %q is not a %s spec", kind, row.spec, kind)
			continue
		}
		g, err := NewGenerator(row.spec)
		if err != nil {
			t.Fatalf("NewGenerator(%q): %v", row.spec, err)
		}
		var arcs int64
		got := testing.AllocsPerRun(3, func() {
			var count CountingSink
			if _, err := Stream(ctx, ModelSource(g, 1), &count, WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
			arcs = count.N
		})
		if arcs == 0 {
			t.Errorf("%s: empty stream", row.spec)
		}
		limit := math.Ceil(float64(row.allocs) * 1.2)
		t.Logf("%s: %.0f allocs per pass (recorded %d, limit %.0f), %d arcs", kind, got, row.allocs, limit, arcs)
		if got > limit {
			t.Errorf("%s: %.0f allocs per pass, more than %.0f (recorded %d + 20 %%)", row.spec, got, limit, row.allocs)
		}
	}
}

// modelBuildRows holds one mid-size spec per registered model kind — the
// hash-bin and geo-bin benchmark specs — and the bytes NewGenerator plus
// ModelSource allocated building it when the row was recorded.
// TestModelBuildBytes fails when a build allocates more than 20 % above
// that; TestModelReferenceCoversRegistry fails when a kind has no row.
// Set-up a kind defers to its first run (the spatial kinds' cell
// tables) is not counted here.
var modelBuildRows = map[string]struct {
	spec  string
	bytes uint64
}{
	"ba":      {"ba:n=2000000,d=4,seed=1000", 4464},
	"chunglu": {"chunglu:n=4000000,dmin=8,dmax=2000,gamma=2.1,seed=1003", 1028800},
	"er":      {"er:n=250000,p=0.0004,seed=1002", 3456},
	"gnm":     {"gnm:n=1000000,m=8000000,seed=1001", 8968},
	"grid2d":  {"grid2d:x=2000,y=2000,wrap=true,p=0.8,seed=1004", 2496},
	"grid3d":  {"grid3d:x=128,y=128,z=128,wrap=true,p=0.8,seed=1005", 2512},
	"rgg2d":   {"rgg2d:n=3000000,r=0.001,seed=1001", 75000},
	"rgg3d":   {"rgg3d:n=1000000,r=0.0097,seed=1002", 75000},
	"rhg":     {"rhg:n=700000,d=16,gamma=2.9,seed=1003", 42360},
	"rmat":    {"rmat:scale=19,seed=1000", 2496},
}

// TestModelBuildBytes is the construction-memory gate: the bytes
// allocated (runtime.MemStats.TotalAlloc) by NewGenerator and
// ModelSource over every kind's row, the least of three builds. A
// generator's state must not grow with the graph where the model does
// not need it to — chunglu keeps its weight head, not n floats.
func TestModelBuildBytes(t *testing.T) {
	for _, kind := range ModelKinds() {
		row, ok := modelBuildRows[kind]
		if !ok {
			t.Errorf("registered kind %q has no modelBuildRows entry", kind)
			continue
		}
		if !strings.HasPrefix(row.spec, kind+":") {
			t.Errorf("modelBuildRows[%q] spec %q is not a %s spec", kind, row.spec, kind)
			continue
		}
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := NewGenerator(row.spec)
			if err != nil {
				t.Fatalf("NewGenerator(%q): %v", row.spec, err)
			}
			src := ModelSource(g, 8)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(src)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		limit := row.bytes + row.bytes/5
		t.Logf("%s: %d bytes to build (recorded %d, limit %d)", kind, got, row.bytes, limit)
		if got > limit {
			t.Errorf("%s: %d bytes to build, more than %d (recorded %d + 20 %%)", row.spec, got, limit, row.bytes)
		}
	}
}
