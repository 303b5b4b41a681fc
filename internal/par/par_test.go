package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunksCoverRangeExactly(t *testing.T) {
	cases := []struct{ n, parts int64 }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {7, 100}, {1 << 20, 16}, {3, 0}, {3, -2},
	}
	for _, c := range cases {
		chunks := Chunks(c.n, c.parts)
		var covered int64
		prev := int64(0)
		for _, ch := range chunks {
			if ch[0] != prev {
				t.Fatalf("Chunks(%d,%d): gap or overlap at %v", c.n, c.parts, ch)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("Chunks(%d,%d): empty chunk %v", c.n, c.parts, ch)
			}
			covered += ch[1] - ch[0]
			prev = ch[1]
		}
		if covered != max64(c.n, 0) {
			t.Fatalf("Chunks(%d,%d) covered %d elements", c.n, c.parts, covered)
		}
		if c.n > 0 && prev != c.n {
			t.Fatalf("Chunks(%d,%d) ended at %d", c.n, c.parts, prev)
		}
	}
}

func TestChunksBalanced(t *testing.T) {
	chunks := Chunks(103, 10)
	if len(chunks) != 10 {
		t.Fatalf("expected 10 chunks, got %d", len(chunks))
	}
	for _, ch := range chunks {
		size := ch[1] - ch[0]
		if size < 10 || size > 11 {
			t.Errorf("unbalanced chunk %v (size %d)", ch, size)
		}
	}
}

func TestQuickChunksPartition(t *testing.T) {
	f := func(nRaw, partsRaw uint16) bool {
		n, parts := int64(nRaw), int64(partsRaw)
		chunks := Chunks(n, parts)
		var total int64
		prev := int64(0)
		for _, ch := range chunks {
			if ch[0] != prev || ch[1] <= ch[0] {
				return false
			}
			total += ch[1] - ch[0]
			prev = ch[1]
		}
		return total == n || (n <= 0 && total == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForBlockedCoversRange(t *testing.T) {
	const n = 100000
	counts := make([]int32, n)
	ForBlocked(n, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForDynamicVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int64{0, 1, 17, 5000, 60001} {
		for _, grain := range []int64{0, 1, 7, 1024} {
			counts := make([]int32, n)
			ForDynamic(n, grain, func(i int64) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, c)
				}
			}
		}
	}
}

func TestMapWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		var ran atomic.Int32
		seen := make([]atomic.Int32, w)
		MapWorkers(w, func(worker, nWorkers int) {
			if nWorkers != w {
				t.Errorf("nWorkers = %d, want %d", nWorkers, w)
			}
			seen[worker].Add(1)
			ran.Add(1)
		})
		if int(ran.Load()) != w {
			t.Fatalf("MapWorkers(%d) ran %d times", w, ran.Load())
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("worker %d ran %d times", i, seen[i].Load())
			}
		}
	}
}

func TestMapWorkersDefault(t *testing.T) {
	var ran atomic.Int32
	MapWorkers(0, func(worker, nWorkers int) {
		if nWorkers != MaxWorkers() {
			t.Errorf("default nWorkers = %d, want %d", nWorkers, MaxWorkers())
		}
		ran.Add(1)
	})
	if int(ran.Load()) != MaxWorkers() {
		t.Fatalf("default MapWorkers ran %d times, want %d", ran.Load(), MaxWorkers())
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
