package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command and checks that bad flag
// combinations fail before any profile starts, and that a product spec
// streams the bytes the two-flag product CLI wrote for the same factors
// (sha256 recorded with it).
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gengen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	prof := filepath.Join(dir, "cpu.pprof")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", "er:n=10,p=0.5", "-shards", "-1"}, "-shards -1"},
		{[]string{"-model", "er:n=10,p=0.5", "-binary", "-cpuprofile", prof}, "-binary needs -out"},
		{[]string{"-model", "kron(a=clique:n=3)", "-cpuprofile", prof}, "want kron(a=<factor>;b=<factor>)"},
		{[]string{}, "-model is required"},
	} {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("gengen %q: err %v, output lacks %q:\n%s", c.args, err, c.want, out)
		}
	}
	if _, err := os.Stat(prof); err == nil {
		t.Error("a rejected run started the CPU profile")
	}

	const spec = "kron(a=web:n=2048,m=3,seed=42;b=clique:n=6)"
	out, err := exec.Command(bin, "-model", spec, "-shards", "4").Output()
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); err != nil ||
		got != "ca74912f358c02cb761f931385d89e885fc1e6b04e1b4eae4fd307a24b5c8ee2" {
		t.Errorf("gengen -model %s: err %v, stdout sha256 %s", spec, err, got)
	}
	out, err = exec.Command(bin, "-model", spec, "-count").Output()
	if err != nil || !strings.HasPrefix(string(out), "source\t"+spec+"\n") {
		t.Errorf("gengen -count: %v\n%s", err, out)
	}
}
