package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

const goldenFile = "testdata/paper.golden"

// TestPaperGolden runs every experiment at the default -n and -seed and
// compares the output, less its one timing line, byte for byte with the
// committed golden file. A change to the golden file is reviewed the way
// a digest re-pin is. A failed check fails the test whatever the golden
// file says, so the file cannot pin a wrong result.
func TestPaperGolden(t *testing.T) {
	var buf bytes.Buffer
	r := &report{w: &buf}
	runAll(r, defaultN, defaultSeed)
	for _, name := range r.failed {
		t.Errorf("check failed: %s", name)
	}

	var got []byte
	timing := 0
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("timing: ")) {
			timing++
			continue
		}
		got = append(got, line...)
	}
	if timing != 1 {
		t.Errorf("output has %d timing lines, want 1", timing)
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paperrepro output differs from %s:\n%s\nif the change is intended, regenerate it from the repository root with:\n"+
			"  go run ./cmd/paperrepro -exp all | grep -v '^timing: ' > cmd/paperrepro/%s",
			goldenFile, firstDiff(got, want), goldenFile)
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
