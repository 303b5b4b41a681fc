// Package spec parses the factor-graph specifications of the
// command-line tools. It owns the kinds that exist only as explicit
// factors:
//
//	web:n=4096,m=4,pt=0.7,seed=42      scale-free with triad closure
//	clique:n=5                          K_5
//	jclique:n=5                         J_5 (clique + all self loops)
//	hubcycle:c=4                        Ex. 2 graph
//	cycle:n=9 | path:n=9 | star:n=9
//	pa1:n=500,seed=1                    §III.D(b) Δ≤1 generator
//	file:path=edges.tsv,n=100           TSV edge list (symmetrized)
//
// Every other kind is a random-model kind and is resolved by the model
// registry (MODELS.md, `gengen -kinds`): the same string means the same
// graph here, in gengen and in genserve, and registering a kind is all
// it takes to make it a factor. Such a factor is collected in memory,
// so it is refused once it exceeds the explicit-graph arc cap
// (gen.FromModel).
//
// A trailing "+loops" adds a self loop at every vertex (B = A + I).
// Unknown parameter keys are rejected — before any generation work is
// spent — so a typo cannot silently fall back to a default. So is a
// factor-only parameter out of its range: below the kind's least value
// (n ≥ 1; cycle n ≥ 3; hubcycle c ≥ 3; pa1 n ≥ 2; web m ≥ 1, n > m),
// a web pt outside [0, 1], or a size over the explicit-graph arc cap
// that registry kinds meet too (gen.MaxExplicitArcs).
//
// A whole product is spelled kron(a=<factor>;b=<factor>), and either
// factor may itself be a product (SplitKron, ParseKron).
package spec

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"kronvalid/internal/gen"
	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/model"
	"kronvalid/internal/params"
)

// Parse builds a factor graph from a specification string. Parameters
// are read and validated in full (including unknown-key rejection)
// before the generator runs, so malformed specs fail fast.
func Parse(s string) (*graph.Graph, error) {
	g, _, err := ParseNamed(s)
	return g, err
}

// ParseNamed is Parse that also returns the factor's canonical
// spelling: a model-registry kind is spelled by its generator's Name(),
// any other kind as written, either with its "+loops" suffix kept.
// Parsing the spelling again builds the same graph under the same
// spelling.
func ParseNamed(s string) (*graph.Graph, string, error) {
	g, name, err := parse(s)
	if err != nil {
		return nil, "", fmt.Errorf("spec: %v", err)
	}
	return g, name, nil
}

func parse(s string) (*graph.Graph, string, error) {
	base, addLoops := strings.CutSuffix(s, "+loops")
	kind, p, err := params.Parse(base)
	if err != nil {
		return nil, "", err
	}
	var mk maker
	name := base
	if slices.Contains(model.Kinds(), kind) {
		mg, err := model.FromParams(kind, p)
		if err != nil {
			return nil, "", err
		}
		mk = func() (*graph.Graph, error) { return gen.FromModel(mg, nil) }
		name = mg.Name()
	} else if mk, err = builder(kind, p); err != nil {
		return nil, "", err
	}
	if err := p.CheckUnused(kind); err != nil {
		return nil, "", err
	}
	g, err := mk()
	if err != nil {
		return nil, "", err
	}
	if addLoops {
		g, name = g.WithAllLoops(), name+"+loops"
	}
	return g, name, nil
}

// SplitKron reads the product form kron(a=<factor>;b=<factor>), in which
// either factor may itself be a product. ok reports whether s starts
// with "kron(", and then factors lists the k ≥ 2 leaf factor spellings
// from left to right: nesting is flattened, which is exact because the
// Kronecker product is associative, mixed-radix vertex ids included.
// Each split is at the one ';' outside every parenthesis, so KaGen-form
// factors such as ba(n=50;d=2) and "+loops" suffixes nest unchanged; it
// must run before params.Parse, whose alias rewrite would turn that ';'
// into ','. Unbalanced parentheses, text after the closing parenthesis
// (a product takes no "+loops"), a missing or extra key and an empty
// factor are errors. SplitKron builds nothing.
func SplitKron(s string) (factors []string, ok bool, err error) {
	inner, ok := strings.CutPrefix(s, "kron(")
	if !ok {
		return nil, false, nil
	}
	var parts []string
	depth, start, end := 0, 0, -1
	for i := 0; i < len(inner) && end < 0; i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			if depth == 0 {
				end = i
			}
			depth--
		case ';':
			if depth == 0 {
				parts = append(parts, inner[start:i])
				start = i + 1
			}
		}
	}
	tail := inner[end+1:]
	switch {
	case end < 0 || strings.ContainsAny(tail, "()"):
		return nil, true, fmt.Errorf("spec: %q: unbalanced parentheses", s)
	case tail == "+loops":
		return nil, true, fmt.Errorf("spec: %q: a product takes no +loops suffix; put +loops on its factors", s)
	case tail != "":
		return nil, true, fmt.Errorf("spec: %q: %q follows the product's closing parenthesis", s, tail)
	}
	parts = append(parts, inner[start:end])
	if len(parts) == 2 {
		a, aok := strings.CutPrefix(parts[0], "a=")
		b, bok := strings.CutPrefix(parts[1], "b=")
		if aok && bok && a != "" && b != "" {
			for _, f := range []string{a, b} {
				sub, nested, err := SplitKron(f)
				if err != nil {
					return nil, true, err
				}
				if !nested {
					sub = []string{f}
				}
				factors = append(factors, sub...)
			}
			return factors, true, nil
		}
	}
	return nil, true, fmt.Errorf("spec: %q: want kron(a=<factor>;b=<factor>)", s)
}

// KronSpec spells the product of k ≥ 2 factor spellings in the form
// SplitKron reads, folded from the left: kron(a=kron(a=F₀;b=F₁);b=F₂)
// for three factors. It is the canonical spelling of every nesting of
// the same factors.
func KronSpec(factors ...string) string {
	s := factors[0]
	for _, f := range factors[1:] {
		s = "kron(a=" + s + ";b=" + f + ")"
	}
	return s
}

// ParseKron builds the factors a product spec names, in order, and the
// product's canonical spelling: KronSpec over each factor's ParseNamed
// spelling. A spec that is not a product is an error that names the
// grammar.
func ParseKron(s string) (factors []*graph.Graph, name string, err error) {
	parts, ok, err := SplitKron(s)
	if err != nil {
		return nil, "", err
	}
	if !ok {
		return nil, "", fmt.Errorf("spec: %q is not a product: want kron(a=<factor>;b=<factor>), where a factor may itself be a kron(…)", s)
	}
	names := make([]string, len(parts))
	for i, part := range parts {
		g, n, err := ParseNamed(part)
		if err != nil {
			return nil, "", err
		}
		factors, names[i] = append(factors, g), n
	}
	return factors, KronSpec(names...), nil
}

// maker defers the (possibly expensive) generation until every
// parameter of the spec has been validated.
type maker func() (*graph.Graph, error)

// oneInt lists the deterministic families fixed by a single integer
// (def < 0 marks it required), each with its least value and its arc
// count, which bound the parameter.
var oneInt = map[string]struct {
	key   string
	def   int
	min   int64
	arcs  func(int64) int64
	build func(int) *graph.Graph
}{
	"clique":   {"n", -1, 1, func(n int64) int64 { return n * (n - 1) }, gen.Clique},
	"jclique":  {"n", -1, 1, func(n int64) int64 { return n * n }, gen.CliqueWithLoops},
	"hubcycle": {"c", 4, 3, func(c int64) int64 { return 4 * c }, gen.HubCycle},
	"cycle":    {"n", -1, 3, func(n int64) int64 { return 2 * n }, gen.Cycle},
	"path":     {"n", -1, 1, func(n int64) int64 { return 2 * (n - 1) }, gen.Path},
	"star":     {"n", -1, 1, func(n int64) int64 { return 2 * (n - 1) }, gen.Star},
}

// factorOnly names the kinds this package builds itself, for the
// unknown-kind message.
const factorOnly = "clique, cycle, file, hubcycle, jclique, pa1, path, star, web"

// sized reads the integer parameter key of kind and checks it: at least
// min, and a graph of at most gen.MaxExplicitArcs arcs, where arcs gives
// the (upper bound of the) arc count at a value no larger than that cap.
// Each error names the parameter.
func sized(p *params.Params, kind, key string, def int, min int64, arcs func(int64) int64) (int, error) {
	v, err := p.Int64(key, int64(def))
	if err != nil {
		return 0, err
	}
	if v < min {
		return 0, fmt.Errorf("%s: parameter %q = %d, want at least %d", kind, key, v, min)
	}
	if v > gen.MaxExplicitArcs || arcs(v) > gen.MaxExplicitArcs {
		return 0, fmt.Errorf("%s: parameter %q = %d makes a graph over the %d-arc cap of an explicit factor", kind, key, v, gen.MaxExplicitArcs)
	}
	return int(v), nil
}

// builder returns the maker of a factor-only kind.
func builder(kind string, p *params.Params) (maker, error) {
	seed, err := p.Seed()
	if err != nil {
		return nil, err
	}
	if f, ok := oneInt[kind]; ok {
		v, err := sized(p, kind, f.key, f.def, f.min, f.arcs)
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return f.build(v), nil }, nil
	}
	switch kind {
	case "web":
		m, err := sized(p, kind, "m", 3, 1, func(m int64) int64 { return 2 * m })
		if err != nil {
			return nil, err
		}
		// Each vertex past the first m+1 adds m edges.
		n, err := sized(p, kind, "n", -1, int64(m)+1, func(n int64) int64 { return 2 * (int64(m) + (n-int64(m)-1)*int64(m)) })
		if err != nil {
			return nil, err
		}
		pt, err := p.Float("pt", 0.7)
		if err != nil {
			return nil, err
		}
		if !(pt >= 0 && pt <= 1) {
			return nil, fmt.Errorf("%s: parameter %q = %v, want a probability in [0, 1]", kind, "pt", pt)
		}
		return func() (*graph.Graph, error) { return gen.WebGraph(n, m, pt, seed), nil }, nil
	case "pa1":
		// Each vertex past the first two adds at most two edges.
		n, err := sized(p, kind, "n", -1, 2, func(n int64) int64 { return 4 * n })
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return gen.TriangleLimitedPA(n, seed), nil }, nil
	case "file":
		path, ok := p.String("path")
		if !ok {
			return nil, fmt.Errorf("file requires path=")
		}
		// The file bounds the arcs; n bounds the vertices.
		n, err := sized(p, kind, "n", -1, 1, func(int64) int64 { return 0 })
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return gio.ReadEdgeList(f, n, true)
		}, nil
	default:
		return nil, fmt.Errorf("unknown generator kind %q (factor-only kinds: %s; model kinds: %s)",
			kind, factorOnly, strings.Join(model.Kinds(), ", "))
	}
}
