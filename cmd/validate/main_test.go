package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command and checks that a run in which no
// check could execute fails, whether no sample met the degree cap or no
// sample was asked for, and that a run that validates succeeds.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "validate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const web = "kron(a=web:n=2000,m=4,seed=1;b=web:n=2000,m=4,seed=2)"

	for _, args := range [][]string{
		{"-max-degree", "3"},
		{"-vertex-samples", "0", "-edge-samples", "0"},
	} {
		out, err := exec.Command(bin, append([]string{"-model", web, "-sample"}, args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: no check ran, exit status 0:\n%s", args, out)
		}
		for _, want := range []string{
			"egonet spot checks (0 expanded)", "edge Δ spot checks (0 checked)", "skipped:", "no check ran",
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out)
			}
		}
		if strings.Contains(string(out), "validated ✓") {
			t.Errorf("%v: nothing ran, yet:\n%s", args, out)
		}
	}
	if out, err := exec.Command(bin, "-model", web, "-sample", "-vertex-samples", "-1").CombinedOutput(); err == nil {
		t.Errorf("negative sample count, exit status 0:\n%s", out)
	}
	if out, err := exec.Command(bin, "-model", "er:n=12,p=0.4,seed=1").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "kron(a=<factor>;b=<factor>)") {
		t.Errorf("a spec that is not a product: %v\n%s", err, out)
	}

	out, err := exec.Command(bin).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "all formulas validated ✓") {
		t.Errorf("default factors: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "-model", "kron(a=path:n=4;b=kron(a=clique:n=3;b=cycle:n=5))").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "all formulas validated ✓") {
		t.Errorf("three factors: %v\n%s", err, out)
	}
}
