package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kronvalid"
)

// TestJSONOutput builds the command and checks that with -json stdout is
// one JSON record, whatever else is asked for, and that its name is a
// spec that rebuilds the product.
func TestJSONOutput(t *testing.T) {
	bin := build(t)

	cmd := exec.Command(bin, "-json", "-vertex", "5", "-csr", "-model", "kron(a=clique:n=5;b=clique:n=4+loops)")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	var rec struct {
		Name  string `json:"name"`
		Edges int64  `json:"edges"`
	}
	dec := json.NewDecoder(strings.NewReader(string(stdout)))
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
	}
	if dec.More() {
		t.Errorf("stdout holds more than the JSON record:\n%s", stdout)
	}
	for _, want := range []string{"vertex 5 = (A:1, B:1)", "wedge count", "directed vertex census (Thm. 4) uuo", "CSR adjacency"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}

	if rec.Name != "kron(a=clique:n=5;b=clique:n=4+loops)" {
		t.Errorf("name = %q", rec.Name)
	}
	src, err := kronvalid.ParseSource(rec.Name, 0)
	if err != nil {
		t.Fatalf("ParseSource(%q): %v", rec.Name, err)
	}
	if src.Name() != rec.Name || src.TotalArcs() != rec.Edges {
		t.Errorf("%s rebuilds %s with %d arcs, record says %d", rec.Name, src.Name(), src.TotalArcs(), rec.Edges)
	}
}

// TestVertexColumns: -vertex prints the vertex statistics that apply to
// the product, and a vertex below -1 is refused.
func TestVertexColumns(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-vertex", "3", "-model", "kron(a=path:n=4;b=clique:n=3)").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"degree formula", "vertex participation", "directed vertex census (Thm. 4) tto"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "labeled") {
		t.Errorf("unlabeled product prints a labeled census:\n%s", out)
	}
	if out, err := exec.Command(bin, "-vertex", "-5", "-model", "kron(a=clique:n=3;b=clique:n=3)").CombinedOutput(); err == nil {
		t.Errorf("-vertex -5 exits 0:\n%s", out)
	}
}

// TestNestedProduct: a nested spec is one product of three factors,
// lettered A, B and C, with a vertex's every digit printed, and a spec
// that is not a product is refused with the grammar.
func TestNestedProduct(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-vertex", "77", "-model", "kron(a=web:n=200,m=3,seed=42;b=kron(a=clique:n=5;b=hubcycle:c=4))").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"factor C: 5 vertices, 16 arcs", "product C = A⊗B⊗C:", "triangles  473760 (exact)", "vertex 77 = (A:3, B:0, C:2):",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bin, "-model", "clique:n=3").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "kron(a=<factor>;b=<factor>)") {
		t.Errorf("a spec that is not a product: %v\n%s", err, out)
	}
}

func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kronstats")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
