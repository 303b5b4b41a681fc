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
// spent — so a typo cannot silently fall back to a default.
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
	g, err := parse(s)
	if err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return g, nil
}

func parse(s string) (*graph.Graph, error) {
	s, addLoops := strings.CutSuffix(s, "+loops")
	kind, p, err := params.Parse(s)
	if err != nil {
		return nil, err
	}
	mk, err := builder(kind, p)
	if err != nil {
		return nil, err
	}
	if err := p.CheckUnused(kind); err != nil {
		return nil, err
	}
	g, err := mk()
	if err != nil {
		return nil, err
	}
	if addLoops {
		g = g.WithAllLoops()
	}
	return g, nil
}

// maker defers the (possibly expensive) generation until every
// parameter of the spec has been validated.
type maker func() (*graph.Graph, error)

// oneInt lists the deterministic families fixed by a single integer
// (def < 0 marks it required).
var oneInt = map[string]struct {
	key   string
	def   int
	build func(int) *graph.Graph
}{
	"clique":   {"n", -1, gen.Clique},
	"jclique":  {"n", -1, gen.CliqueWithLoops},
	"hubcycle": {"c", 4, gen.HubCycle},
	"cycle":    {"n", -1, gen.Cycle},
	"path":     {"n", -1, gen.Path},
	"star":     {"n", -1, gen.Star},
}

// factorOnly names the kinds this package builds itself, for the
// unknown-kind message.
const factorOnly = "clique, cycle, file, hubcycle, jclique, pa1, path, star, web"

func builder(kind string, p *params.Params) (maker, error) {
	if slices.Contains(model.Kinds(), kind) {
		mg, err := model.FromParams(kind, p)
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return gen.FromModel(mg, nil) }, nil
	}
	seed, err := p.Seed()
	if err != nil {
		return nil, err
	}
	if f, ok := oneInt[kind]; ok {
		v, err := p.Int(f.key, f.def)
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return f.build(v), nil }, nil
	}
	switch kind {
	case "web":
		n, err := p.Int("n", -1)
		if err != nil {
			return nil, err
		}
		m, err := p.Int("m", 3)
		if err != nil {
			return nil, err
		}
		pt, err := p.Float("pt", 0.7)
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return gen.WebGraph(n, m, pt, seed), nil }, nil
	case "pa1":
		n, err := p.Int("n", -1)
		if err != nil {
			return nil, err
		}
		return func() (*graph.Graph, error) { return gen.TriangleLimitedPA(n, seed), nil }, nil
	case "file":
		path, ok := p.String("path")
		if !ok {
			return nil, fmt.Errorf("file requires path=")
		}
		n, err := p.Int("n", -1)
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
