package kronvalid

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// serialEdgeBytes renders the legacy per-arc EachArc stream the way the
// old fmt-based writer did — the reference byte stream every pipeline
// configuration must reproduce.
func serialEdgeBytes(p *Product) []byte {
	var buf bytes.Buffer
	p.EachArc(func(u, v int64) bool {
		fmt.Fprintf(&buf, "%d\t%d\n", u, v)
		return true
	})
	return buf.Bytes()
}

func pipelineProduct() *Product {
	a := WebGraph(120, 3, 0.7, 9)
	b := HubCycle(6)
	return MustProduct(a, b)
}

func TestStreamEdgesBytewiseStableAcrossWorkerCounts(t *testing.T) {
	p := pipelineProduct()
	want := serialEdgeBytes(p)
	for _, workers := range []int{1, 2, 3, 8} {
		var got bytes.Buffer
		var count CountingSink
		var check DedupCheckSink
		n, err := Stream(context.Background(), ProductSource(p, workers),
			MultiSink{NewEdgeListSink(&got), &count, &check}, WithWorkers(workers), WithBatchSize(512))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != p.NumArcs() || count.N != n {
			t.Fatalf("workers=%d: streamed %d arcs (counted %d), want %d", workers, n, count.N, p.NumArcs())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d: stream bytes differ from legacy EachArc order", workers)
		}
	}
}

func TestWriteShardedReproducesSerialStream(t *testing.T) {
	p := pipelineProduct()
	want := serialEdgeBytes(p)
	for _, workers := range []int{1, 2, 3, 8} {
		dir := t.TempDir()
		m, err := WriteShards(context.Background(), dir, ProductSource(p, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		back, err := ReadShardManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if back.TotalArcs != p.NumArcs() || len(back.Shards) != m.Workers {
			t.Fatalf("workers=%d: manifest mismatch %+v", workers, back)
		}
		var concat []byte
		var sum int64
		for _, s := range back.Shards {
			data, err := os.ReadFile(filepath.Join(dir, s.File))
			if err != nil {
				t.Fatal(err)
			}
			concat = append(concat, data...)
			sum += s.Arcs
		}
		if sum != p.NumArcs() {
			t.Fatalf("workers=%d: shard counts sum to %d, want %d", workers, sum, p.NumArcs())
		}
		if !bytes.Equal(concat, want) {
			t.Fatalf("workers=%d: concatenated shards differ from legacy EachArc order", workers)
		}
	}
}

func TestDegreeHistogramSinkMatchesProductDegrees(t *testing.T) {
	a := WebGraph(40, 3, 0.6, 4)
	p := MustProduct(a, HubCycle(5))
	var h DegreeHistogramSink
	if _, err := Stream(context.Background(), ProductSource(p, 4), &h, WithWorkers(4), WithBatchSize(128)); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	for v := int64(0); v < p.NumVertices(); v++ {
		if d := p.OutDegreeRaw(v); d > 0 {
			want[d]++
		}
	}
	if len(h.Counts) != len(want) {
		t.Fatalf("histogram has %d degrees, want %d", len(h.Counts), len(want))
	}
	for d, c := range want {
		if h.Counts[d] != c {
			t.Fatalf("degree %d: %d vertices, want %d", d, h.Counts[d], c)
		}
	}
}
