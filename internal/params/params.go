// Package params is the "kind:key=value,key=value,…" grammar of the
// generator specification strings. Every surface parses through it: the
// model registry (internal/model) owns the random-model kinds, and the
// factor surface (internal/spec) adds its factor-only kinds and hands
// every other kind to the registry, so a spec string has one meaning.
// Accessors record every key they consume; callers reject the leftovers
// via Unused, so a typo'd parameter is an error instead of a silently
// applied default — as is an empty or repeated key.
//
// Error messages carry no package prefix — callers wrap them with their
// own ("spec: …", "model: …") so CLI output names the surface the user
// actually typed at.
package params

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Params holds the parsed key=value parameters of one spec.
type Params struct {
	kv   map[string]string
	used map[string]bool
}

// Parse splits a spec string into its kind and parameters: the kind is
// everything before the first colon, "key=value" pairs follow it. A
// spec with no colon at all ("hubcycle") is a kind with no parameters —
// valid whenever the kind's parameters all have defaults. The
// KaGen-style surface form "kind(key=value;key=value)" is accepted as
// an alias and normalized to the colon/comma form before parsing. An
// empty or repeated key is an error: which of two values the user meant
// is not this package's guess to make.
func Parse(spec string) (kind string, p *Params, err error) {
	if i := strings.IndexByte(spec, '('); i >= 0 &&
		strings.HasSuffix(spec, ")") && !strings.Contains(spec[:i], ":") {
		spec = spec[:i] + ":" + strings.ReplaceAll(strings.TrimSuffix(spec[i+1:], ")"), ";", ",")
	}
	kind, rest, _ := strings.Cut(spec, ":")
	p = &Params{kv: map[string]string{}, used: map[string]bool{}}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return "", nil, fmt.Errorf("malformed parameter %q", kv)
			}
			if _, dup := p.kv[k]; dup {
				return "", nil, fmt.Errorf("duplicate parameter %q", k)
			}
			p.kv[k] = v
		}
	}
	return kind, p, nil
}

func (p *Params) lookup(key string) (string, bool) {
	s, ok := p.kv[key]
	if ok {
		p.used[key] = true
	}
	return s, ok
}

// Int64 returns an integer parameter; def < 0 marks it required.
func (p *Params) Int64(key string, def int64) (int64, error) {
	s, ok := p.lookup(key)
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("missing required parameter %q", key)
		}
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", key, err)
	}
	return v, nil
}

// Int is Int64 narrowed to int.
func (p *Params) Int(key string, def int) (int, error) {
	v, err := p.Int64(key, int64(def))
	return int(v), err
}

// Float returns a float parameter with a default.
func (p *Params) Float(key string, def float64) (float64, error) {
	s, ok := p.lookup(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", key, err)
	}
	return v, nil
}

// FloatReq returns a required float parameter (no meaningful default
// exists — e.g. a geometric radius).
func (p *Params) FloatReq(key string) (float64, error) {
	if _, ok := p.kv[key]; !ok {
		return 0, fmt.Errorf("missing required parameter %q", key)
	}
	return p.Float(key, 0)
}

// Bool returns a boolean parameter with a default, accepting the
// strconv.ParseBool forms (true/false, t/f, 1/0, …).
func (p *Params) Bool(key string, def bool) (bool, error) {
	s, ok := p.lookup(key)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("parameter %q: %v", key, err)
	}
	return v, nil
}

// String returns a string parameter ("" when absent; ok reports
// presence).
func (p *Params) String(key string) (string, bool) {
	return p.lookup(key)
}

// Seed returns the uint64 "seed" parameter (default 1).
func (p *Params) Seed() (uint64, error) {
	s, ok := p.lookup("seed")
	if !ok {
		return 1, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter \"seed\": %v", err)
	}
	return v, nil
}

// Unused returns the keys no accessor consumed, sorted. Callers turn a
// non-empty result into an "unknown parameter" error.
func (p *Params) Unused() []string {
	var out []string
	for k := range p.kv {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// CheckUnused returns an error naming any unconsumed keys.
func (p *Params) CheckUnused(kind string) error {
	if stray := p.Unused(); len(stray) > 0 {
		return fmt.Errorf("unknown parameters for %q: %s", kind, strings.Join(stray, ", "))
	}
	return nil
}
