package kronvalid

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestModelReferenceCoversRegistry is the registry/doc drift gate (run
// as a named CI job): every kind returned by ModelKinds must have a
// "## `kind`" section in MODELS.md, appear among the specs of some
// workload in bench/baseline.json, and have a modelAllocRows entry for
// TestModelStreamAllocs. Registering a model without documenting,
// benchmarking and allocation-gating it fails the build, so the model
// reference can never silently fall behind the registry.
func TestModelReferenceCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("MODELS.md")
	if err != nil {
		t.Fatalf("MODELS.md unreadable: %v", err)
	}
	raw, err := os.ReadFile("bench/baseline.json")
	if err != nil {
		t.Fatalf("bench/baseline.json unreadable: %v", err)
	}
	var baseline struct {
		Workloads map[string]struct {
			Specs []string `json:"specs"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("bench/baseline.json: %v", err)
	}
	benched := map[string]bool{}
	for _, w := range baseline.Workloads {
		for _, spec := range w.Specs {
			kind, _, _ := strings.Cut(spec, ":")
			benched[kind] = true
		}
	}
	kinds := ModelKinds()
	if len(kinds) == 0 {
		t.Fatal("no registered model kinds — the gate is vacuous")
	}
	for _, kind := range kinds {
		if heading := fmt.Sprintf("## `%s`", kind); !strings.Contains(string(doc), heading) {
			t.Errorf("MODELS.md has no %q section for registered kind %q", heading, kind)
		}
		if !benched[kind] {
			t.Errorf("no workload in bench/baseline.json has a %s spec", kind)
		}
		if _, ok := modelAllocRows[kind]; !ok {
			t.Errorf("registered kind %q has no TestModelStreamAllocs row", kind)
		}
	}
	// The reference must not document ghosts either: every "## `x`"
	// heading has to name a registered kind.
	registered := map[string]bool{}
	for _, k := range kinds {
		registered[k] = true
	}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "## `") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(line, "## `"), "`")
		if !registered[name] {
			t.Errorf("MODELS.md documents %q, which is not a registered kind", name)
		}
	}
}

// TestCINamedTestsExist keeps the named test selections from going
// stale: `go test -run` passes vacuously when a pattern matches nothing,
// so a renamed or deleted test would silently drop out of its CI job,
// and a -skip that matches nothing as silently stops skipping. Every
// alternative of every -run '…' and -skip '…' pattern in the CI
// workflow, and every Test… identifier MODELS.md cites, must match a
// test function declared in the repo's _test.go files. The same holds
// for fuzz targets: `go test -fuzz` with a stale name exits 0 having
// fuzzed nothing, so every Fuzz… identifier in the workflow must be
// declared. Commands are held to the same rule: every cmd/<x> path in
// the workflow, the README and the verify notes must exist, and a
// removed command or file may not be mentioned there at all, so a
// deleted one leaves no dangling CI step or doc line. An examples/<x>
// path fails too: the runnable examples are the root package's Example
// functions.
func TestCINamedTestsExist(t *testing.T) {
	declared := map[string]bool{}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	matchesSome := func(pattern string) bool {
		re, err := regexp.Compile(pattern)
		if err != nil {
			return false
		}
		for name := range declared {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("CI workflow unreadable: %v", err)
	}
	patterns := regexp.MustCompile(`-(run|skip) '([^']*)'`).FindAllSubmatch(ci, -1)
	checked := map[string]int{}
	for _, m := range patterns {
		flag, pattern := string(m[1]), string(m[2])
		if pattern == "^$" {
			continue // benchmark and fuzz steps deselect every test on purpose
		}
		if strings.ContainsAny(pattern, "()") {
			t.Errorf("ci.yml -%s '%s': keep patterns flat (A|B|C) so each alternative can be checked", flag, pattern)
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			checked[flag]++
			if !matchesSome(alt) {
				t.Errorf("ci.yml -%s alternative %q matches no test function", flag, alt)
			}
		}
	}
	if checked["run"] == 0 {
		t.Fatal("found no -run patterns in ci.yml — the gate is vacuous")
	}
	fuzzed := regexp.MustCompile(`\bFuzz[A-Z]\w*`).FindAllString(string(ci), -1)
	if len(fuzzed) == 0 {
		t.Fatal("found no fuzz targets in ci.yml — the gate is vacuous")
	}
	for _, name := range fuzzed {
		if !declared[name] {
			t.Errorf("ci.yml fuzzes %s, which no _test.go file declares", name)
		}
	}

	cmdPath := regexp.MustCompile(`\b(?:cmd|examples)/\w+`)
	// krongen was folded into gengen; benchdiff and its baseline gave
	// way to bench -compare.
	removed := regexp.MustCompile(`\b(?:krongen|benchdiff|BENCH_baseline)\b`)
	for _, name := range []string{".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%s unreadable: %v", name, err)
		}
		for _, path := range cmdPath.FindAllString(string(doc), -1) {
			if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which does not exist", name, path)
			}
		}
		for _, gone := range removed.FindAll(doc, -1) {
			t.Errorf("%s mentions the removed %s", name, gone)
		}
	}

	doc, err := os.ReadFile("MODELS.md")
	if err != nil {
		t.Fatalf("MODELS.md unreadable: %v", err)
	}
	for _, name := range regexp.MustCompile(`\bTest[A-Z]\w*`).FindAllString(string(doc), -1) {
		if !declared[name] {
			t.Errorf("MODELS.md cites %s, which no _test.go file declares", name)
		}
	}
}
