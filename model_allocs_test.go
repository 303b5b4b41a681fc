package kronvalid

import (
	"context"
	"math"
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
