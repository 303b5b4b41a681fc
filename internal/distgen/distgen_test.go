package distgen

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/gio"
	"kronvalid/internal/kron"
	"kronvalid/internal/stream"
)

type Arc = stream.Arc

// eachShardArc walks shard w arc by arc; fn returning false stops the
// shard's generation through the emit contract (emit returns nil).
func eachShardArc(pl *Plan, w int, fn func(a Arc) bool) {
	pl.EachShardBatch(w, make([]Arc, 0, stream.DefaultBatchSize), func(full []Arc) []Arc {
		for _, a := range full {
			if !fn(a) {
				return nil
			}
		}
		return full[:0]
	})
}

// collectAll concatenates every shard's arcs in shard index order.
func collectAll(pl *Plan) []Arc {
	var all []Arc
	for w := 0; w < pl.Shards(); w++ {
		eachShardArc(pl, w, func(a Arc) bool {
			all = append(all, a)
			return true
		})
	}
	return all
}

// writeShard drives shard w alone through the ordered driver into sink
// and returns the number of arcs written.
func writeShard(t *testing.T, pl *Plan, w int, sink stream.Sink) int64 {
	t.Helper()
	n, err := stream.RunContext(context.Background(), 1, func(_ int, buf []Arc, emit func([]Arc) []Arc) {
		pl.EachShardBatch(w, buf, emit)
	}, sink, stream.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeKron writes pl's shards into dir with the manifest identity the
// root package stamps on Kronecker sources.
func writeKron(t *testing.T, dir string, pl *Plan, binary bool) *Manifest {
	t.Helper()
	m, err := WriteShards(context.Background(), dir, pl, Manifest{
		Model:         "kron",
		FactorADigest: gio.GraphDigest(pl.Product().A),
		FactorBDigest: gio.GraphDigest(pl.Product().B),
	}, binary, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func plan(t *testing.T, workers int) (*Plan, *kron.Product) {
	t.Helper()
	a := gen.WebGraph(40, 3, 0.6, 3)
	b := gen.HubCycle(5)
	p := kron.MustProduct(a, b)
	return NewPlan(p, workers), p
}

func TestShardSizesSumToTotal(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16} {
		pl, p := plan(t, w)
		var sum int64
		for i := 0; i < pl.Shards(); i++ {
			sum += pl.ShardSize(i)
		}
		if sum != pl.TotalArcs() || sum != p.NumArcs() {
			t.Fatalf("workers=%d: shard sizes sum %d, total %d, product %d",
				w, sum, pl.TotalArcs(), p.NumArcs())
		}
	}
}

func TestShardsReproduceSerialStream(t *testing.T) {
	for _, w := range []int{1, 2, 5, 13} {
		pl, p := plan(t, w)
		all := collectAll(pl)
		var serial []Arc
		p.EachArc(func(u, v int64) bool {
			serial = append(serial, Arc{U: u, V: v})
			return true
		})
		sort.Slice(serial, func(a, b int) bool {
			if serial[a].U != serial[b].U {
				return serial[a].U < serial[b].U
			}
			return serial[a].V < serial[b].V
		})
		if len(all) != len(serial) {
			t.Fatalf("workers=%d: %d arcs vs serial %d", w, len(all), len(serial))
		}
		for i := range all {
			if all[i] != serial[i] {
				t.Fatalf("workers=%d: arc %d differs: %v vs %v", w, i, all[i], serial[i])
			}
		}
	}
}

func TestShardsDisjoint(t *testing.T) {
	pl, _ := plan(t, 4)
	seen := map[Arc]int{}
	for w := 0; w < pl.Shards(); w++ {
		eachShardArc(pl, w, func(a Arc) bool {
			if prev, dup := seen[a]; dup {
				t.Fatalf("arc %v in shards %d and %d", a, prev, w)
			}
			seen[a] = w
			return true
		})
	}
}

func TestShardDeterminism(t *testing.T) {
	pl, _ := plan(t, 3)
	for w := 0; w < pl.Shards(); w++ {
		var a, b bytes.Buffer
		writeShard(t, pl, w, gio.NewArcTextWriter(&a))
		writeShard(t, pl, w, gio.NewArcTextWriter(&b))
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shard %d not reproducible", w)
		}
	}
}

func TestPartitionIndependentOfWorkerCount(t *testing.T) {
	// The union of arcs must be identical for every worker count.
	pl2, _ := plan(t, 2)
	pl9, _ := plan(t, 9)
	a2 := collectAll(pl2)
	a9 := collectAll(pl9)
	if len(a2) != len(a9) {
		t.Fatalf("arc counts differ: %d vs %d", len(a2), len(a9))
	}
	for i := range a2 {
		if a2[i] != a9[i] {
			t.Fatalf("arc %d differs across worker counts", i)
		}
	}
}

func TestWriteShardFormat(t *testing.T) {
	pl, _ := plan(t, 2)
	var buf bytes.Buffer
	n := writeShard(t, pl, 0, gio.NewArcTextWriter(&buf))
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if int64(lines) != n || n != pl.ShardSize(0) {
		t.Fatalf("wrote %d lines, reported %d, shard size %d", lines, n, pl.ShardSize(0))
	}
}

// TestEarlyStop pins the emit contract's stop signal: once emit returns
// nil the shard generates nothing further.
func TestEarlyStop(t *testing.T) {
	pl, _ := plan(t, 1)
	if pl.ShardSize(0) <= 12 {
		t.Fatalf("shard 0 has only %d arcs", pl.ShardSize(0))
	}
	emits := 0
	pl.EachShardBatch(0, make([]Arc, 0, 4), func(full []Arc) []Arc {
		emits++
		if emits == 3 {
			return nil
		}
		return full[:0]
	})
	if emits != 3 {
		t.Fatalf("emit called %d times, want generation to stop after the 3rd returned nil", emits)
	}
}

func TestBinaryShardRoundTrip(t *testing.T) {
	pl, _ := plan(t, 3)
	for w := 0; w < pl.Shards(); w++ {
		var buf bytes.Buffer
		n := writeShard(t, pl, w, gio.NewArcBinaryWriter(&buf))
		if int64(buf.Len()) != n*16 {
			t.Fatalf("shard %d: %d bytes for %d arcs", w, buf.Len(), n)
		}
		arcs, err := gio.ReadArcsBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(arcs)) != n {
			t.Fatalf("shard %d: read %d arcs, wrote %d", w, len(arcs), n)
		}
		i := 0
		eachShardArc(pl, w, func(a Arc) bool {
			if arcs[i] != a {
				t.Fatalf("shard %d arc %d: %v vs %v", w, i, arcs[i], a)
			}
			i++
			return true
		})
	}
}

// TestShardConcatenationBytewiseDeterministic is the pipeline's central
// guarantee: the concatenated shard output is bytewise identical for every
// worker count and equal to the serial EachArc stream (same arcs, same
// order, same bytes).
func TestShardConcatenationBytewiseDeterministic(t *testing.T) {
	a := gen.WebGraph(60, 3, 0.6, 7)
	b := gen.HubCycle(5)
	p := kron.MustProduct(a, b)

	var serial bytes.Buffer
	p.EachArc(func(u, v int64) bool {
		fmt.Fprintf(&serial, "%d\t%d\n", u, v)
		return true
	})

	for _, workers := range []int{1, 2, 3, 8} {
		pl := NewPlan(p, workers)
		var got bytes.Buffer
		var total int64
		for w := 0; w < pl.Shards(); w++ {
			total += writeShard(t, pl, w, gio.NewArcTextWriter(&got))
		}
		if total != p.NumArcs() {
			t.Fatalf("workers=%d: wrote %d arcs, want %d", workers, total, p.NumArcs())
		}
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			t.Fatalf("workers=%d: concatenated shards differ from serial EachArc stream", workers)
		}
	}
}

// TestShardConcatenationMatchesEachArcOrderUnsorted checks arc-level order
// (not just bytes): concatenating EachShardArc streams yields exactly the
// EachArc sequence without any sorting.
func TestShardConcatenationMatchesEachArcOrderUnsorted(t *testing.T) {
	a := gen.WebGraph(50, 3, 0.55, 11)
	b := gen.HubCycle(4)
	p := kron.MustProduct(a, b)
	var serial []Arc
	p.EachArc(func(u, v int64) bool {
		serial = append(serial, Arc{U: u, V: v})
		return true
	})
	for _, workers := range []int{1, 2, 3, 8} {
		pl := NewPlan(p, workers)
		var got []Arc
		for w := 0; w < pl.Shards(); w++ {
			eachShardArc(pl, w, func(a Arc) bool {
				got = append(got, a)
				return true
			})
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d arcs vs %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: arc %d is %v, serial has %v", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestStreamToMatchesSerial runs the parallel ordered pipeline into an
// in-memory text sink and compares bytes against the serial stream.
func TestStreamToMatchesSerial(t *testing.T) {
	a := gen.WebGraph(80, 3, 0.6, 13)
	b := gen.HubCycle(6)
	p := kron.MustProduct(a, b)
	var serial bytes.Buffer
	writeShard(t, NewPlan(p, 1), 0, gio.NewArcTextWriter(&serial))
	for _, workers := range []int{2, 3, 8} {
		pl := NewPlan(p, workers)
		var got bytes.Buffer
		n, err := stream.RunSource(context.Background(), pl, gio.NewArcTextWriter(&got), stream.Options{Workers: workers, BatchSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if n != p.NumArcs() {
			t.Fatalf("workers=%d: streamed %d arcs, want %d", workers, n, p.NumArcs())
		}
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			t.Fatalf("workers=%d: parallel stream differs from serial bytes", workers)
		}
	}
}

// TestWriteShardedManifestRoundTrip writes a sharded directory (text and
// binary) and verifies files, counts, manifest, and that concatenated
// shard files reproduce the serial stream.
func TestWriteShardedManifestRoundTrip(t *testing.T) {
	a := gen.WebGraph(40, 3, 0.6, 3)
	b := gen.HubCycle(5)
	p := kron.MustProduct(a, b)
	var serial bytes.Buffer
	writeShard(t, NewPlan(p, 1), 0, gio.NewArcTextWriter(&serial))
	for _, bin := range []bool{false, true} {
		dir := t.TempDir()
		pl := NewPlan(p, 3)
		m := writeKron(t, dir, pl, bin)
		back, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if back.TotalArcs != p.NumArcs() || back.Workers != pl.Shards() || len(back.Shards) != pl.Shards() {
			t.Fatalf("manifest mismatch: %+v", back)
		}
		if back.FactorADigest != gio.GraphDigest(p.A) || back.FactorBDigest != gio.GraphDigest(p.B) {
			t.Fatal("manifest factor digests differ")
		}
		if back.FactorADigest == back.FactorBDigest {
			t.Fatal("distinct factors share a digest")
		}
		var concat []byte
		for _, s := range m.Shards {
			data, err := os.ReadFile(filepath.Join(dir, s.File))
			if err != nil {
				t.Fatal(err)
			}
			concat = append(concat, data...)
		}
		if bin {
			arcs, err := gio.ReadArcsBinary(bytes.NewReader(concat))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(arcs)) != p.NumArcs() {
				t.Fatalf("binary round trip: %d arcs, want %d", len(arcs), p.NumArcs())
			}
			i := 0
			ok := true
			p.EachArc(func(u, v int64) bool {
				ok = arcs[i] == Arc{U: u, V: v}
				i++
				return ok
			})
			if !ok {
				t.Fatal("binary shards out of order")
			}
		} else if !bytes.Equal(concat, serial.Bytes()) {
			t.Fatal("concatenated text shards differ from serial stream")
		}
	}
}

// TestPlanHeavyRowImbalance exercises boundary rounding when one A row
// holds most arcs (a star's hub): ranges must stay disjoint, cover all
// arcs, and never be empty.
func TestPlanHeavyRowImbalance(t *testing.T) {
	a := gen.Star(50) // hub row carries 49 of 98 arcs
	b := gen.HubCycle(4)
	p := kron.MustProduct(a, b)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		pl := NewPlan(p, workers)
		var sum int64
		prevHi := int32(0)
		for w := 0; w < pl.Shards(); w++ {
			lo, hi := pl.RowRange(w)
			if lo < prevHi || hi <= lo {
				t.Fatalf("workers=%d: bad range [%d,%d) after %d", workers, lo, hi, prevHi)
			}
			if pl.ShardSize(w) == 0 {
				t.Fatalf("workers=%d: empty shard %d", workers, w)
			}
			prevHi = hi
			sum += pl.ShardSize(w)
		}
		if sum != p.NumArcs() {
			t.Fatalf("workers=%d: shards cover %d arcs, want %d", workers, sum, p.NumArcs())
		}
	}
}

// TestWriteShardedRemovesStaleShards reruns into the same directory with a
// smaller worker count and a different format: files from the earlier run
// must not survive, so shard globs always match the manifest.
func TestWriteShardedRemovesStaleShards(t *testing.T) {
	a := gen.WebGraph(40, 3, 0.6, 3)
	p := kron.MustProduct(a, gen.HubCycle(5))
	dir := t.TempDir()
	writeKron(t, dir, NewPlan(p, 4), true)
	m := writeKron(t, dir, NewPlan(p, 2), false)
	got, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Shards) {
		t.Fatalf("%d shard files on disk, manifest lists %d: %v", len(got), len(m.Shards), got)
	}
	for _, path := range got {
		if filepath.Ext(path) != ".tsv" {
			t.Fatalf("stale file survived: %s", path)
		}
	}
}
