package distgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeManifest feeds arbitrary bytes to the shard-manifest reader:
// it must parse-and-validate or reject, never panic, and any accepted
// manifest must survive an encode → decode round trip unchanged —
// matching the fuzz smoke pattern of the gio arc readers.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"format":"tsv","vertices":10,"total_arcs":0,"workers":0}`))
	f.Add([]byte(`{"format":"binary","model":"er:n=10,p=0.5,seed=1,chunks=4","vertices":10,"total_arcs":3,"workers":1,"shards":[{"index":0,"file":"shard-000.bin","arcs":3}]}`))
	f.Add([]byte(`{"format":"tsv","vertices":10,"total_arcs":5,"workers":2,"shards":[{"index":0,"file":"a","arcs":2},{"index":1,"file":"b","arcs":2}]}`))
	f.Add([]byte(`{"format":"tsv","vertices":-1,"total_arcs":0,"workers":0}`))
	f.Add([]byte(`{"format":"tsv","vertices":1,"total_arcs":1,"workers":1,"shards":[{"index":0,"file":"../x","arcs":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("DecodeManifest accepted a manifest Validate rejects: %v", verr)
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		back, err := DecodeManifest(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Format != m.Format || back.Source != m.Source ||
			back.Vertices != m.Vertices || back.TotalArcs != m.TotalArcs ||
			back.Workers != m.Workers || len(back.Shards) != len(m.Shards) {
			t.Fatal("round trip changed manifest fields")
		}
		for i := range m.Shards {
			if back.Shards[i] != m.Shards[i] {
				t.Fatalf("round trip changed shard %d", i)
			}
		}
	})
}

// TestDecodeManifestIgnoresRetiredFields loads a manifest written
// before "source" became the one identity field: its retired "model"
// key is ignored, not rejected.
func TestDecodeManifestIgnoresRetiredFields(t *testing.T) {
	old := `{"format":"tsv","model":"kron","source":"kron(a=f189ebb693d34252,b=14a296fd1ff1904d)",` +
		`"vertices":12,"total_arcs":1,"workers":1,"shards":[{"index":0,"file":"shard-000.tsv","arcs":1}]}`
	m, err := DecodeManifest(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "kron(a=f189ebb693d34252,b=14a296fd1ff1904d)" || m.TotalArcs != 1 {
		t.Errorf("decoded %+v", m)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	valid := func() *Manifest {
		return &Manifest{
			Format:    "tsv",
			Source:    "kron",
			Vertices:  10,
			TotalArcs: 5,
			Workers:   2,
			Shards: []ShardInfo{
				{Index: 0, File: "shard-000.tsv", Arcs: 2},
				{Index: 1, File: "shard-001.tsv", Arcs: 3},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := map[string]func(*Manifest){
		"bad format":        func(m *Manifest) { m.Format = "xml" },
		"negative vertices": func(m *Manifest) { m.Vertices = -1 },
		"negative total":    func(m *Manifest) { m.TotalArcs = -1 },
		"workers mismatch":  func(m *Manifest) { m.Workers = 3 },
		"index gap":         func(m *Manifest) { m.Shards[1].Index = 2 },
		"negative arcs":     func(m *Manifest) { m.Shards[0].Arcs = -1 },
		"empty file":        func(m *Manifest) { m.Shards[0].File = "" },
		"path escape":       func(m *Manifest) { m.Shards[0].File = "../../etc/passwd" },
		"sum mismatch":      func(m *Manifest) { m.TotalArcs = 99 },
	}
	for name, mutate := range cases {
		m := valid()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
}

func TestDecodeManifestRejectsCorrupt(t *testing.T) {
	for _, in := range []string{
		``,
		`garbage`,
		`{"format":"tsv","vertices":5,"total_arcs":2,"workers":1,"shards":[{"index":0,"file":"s","arcs":1}]}`, // sum != total
		`{"format":"","vertices":5,"total_arcs":0,"workers":0}`,
	} {
		if _, err := DecodeManifest(strings.NewReader(in)); err == nil {
			t.Errorf("corrupt manifest accepted: %q", in)
		}
	}
}
