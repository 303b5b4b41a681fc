package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"kronvalid/internal/params"
)

// Params re-exports the shared spec-parameter accessor (see
// internal/params): typed reads that record consumption, so New can
// reject unknown (typically misspelled) keys — a silent typo in a
// generation spec would otherwise silently change the generated graph.
type Params = params.Params

// Builder constructs a generator from a kind's own parameters; the two
// every kind shares ("seed", default 1, and "chunks", default 0 =
// DefaultChunks) are read once, by FromParams, and passed in.
type Builder func(p *Params, seed uint64, chunks int) (Generator, error)

var registry = map[string]Builder{}

// Register installs a model kind; it panics on duplicates, which are
// programming errors.
func Register(kind string, b Builder) {
	if _, dup := registry[kind]; dup {
		panic("model: duplicate registration of kind " + kind)
	}
	registry[kind] = b
}

// Kinds lists the registered model kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New builds a generator from a spec string "kind:k=v,k=v,…", e.g.
// "er:n=100000,p=0.001,seed=42". Every generator's Name() is a valid
// spec that reproduces the identical stream.
func New(spec string) (Generator, error) {
	kind, p, err := params.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("model: %v", err)
	}
	return FromParams(kind, p)
}

// FromParams is New for a spec that is already parsed — the entry the
// factor surface (internal/spec) uses for every kind it does not own,
// so a factor spec and a model spec are read by the same code.
func FromParams(kind string, p *Params) (Generator, error) {
	b, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("model: unknown model kind %q (have %s)", kind, strings.Join(Kinds(), ", "))
	}
	seed, err := p.Seed()
	if err != nil {
		return nil, modelErr(err)
	}
	chunks, err := p.Int("chunks", 0)
	if err != nil {
		return nil, modelErr(err)
	}
	g, err := b(p, seed, chunks)
	if err != nil {
		return nil, modelErr(err)
	}
	if err := p.CheckUnused(kind); err != nil {
		return nil, fmt.Errorf("model: %v", err)
	}
	return g, nil
}

// modelErr prefixes parameter-layer errors without double-prefixing
// constructor errors that already carry "model: ".
func modelErr(err error) error {
	if strings.HasPrefix(err.Error(), "model: ") {
		return err
	}
	return fmt.Errorf("model: %v", err)
}

// formatFloat renders a float parameter so that it parses back to the
// identical value (Name round-tripping).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
