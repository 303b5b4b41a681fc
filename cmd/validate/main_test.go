package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command and checks that a run in which no
// check could execute fails, and that a run that validates succeeds.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "validate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-a", "web:n=2000,m=4,seed=1", "-b", "web:n=2000,m=4,seed=2",
		"-sample", "-max-degree", "3").CombinedOutput()
	if err == nil {
		t.Errorf("no check ran, exit status 0:\n%s", out)
	}
	for _, want := range []string{
		"egonet spot checks (0 expanded)", "edge Δ spot checks (0 checked)", "skipped:", "no check ran",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "validated ✓") {
		t.Errorf("nothing ran, yet:\n%s", out)
	}

	out, err = exec.Command(bin).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "all formulas validated ✓") {
		t.Errorf("default factors: %v\n%s", err, out)
	}
}
