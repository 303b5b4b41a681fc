package params

import (
	"strings"
	"testing"
)

// FuzzParamsParse drives the one spec grammar with arbitrary strings:
// Parse must never panic, and whatever it accepts must keep the
// promises every surface builds on — unique non-empty keys, and an
// empty Unused() once every key has been read.
func FuzzParamsParse(f *testing.F) {
	for _, seed := range []string{
		// The MODELS.md example of every registered kind.
		"ba:n=100000,d=4,seed=7",
		"chunglu:n=100000,dmax=300,gamma=2.1,seed=5",
		"er:n=100000,p=0.001,seed=42",
		"gnm:n=100000,m=1000000,seed=6",
		"grid2d:x=1000,y=1000,p=0.8,wrap=true,seed=42",
		"grid3d:x=100,y=100,z=100,p=0.5,wrap=true,seed=42",
		"rgg2d:n=100000,r=0.005,seed=42",
		"rgg3d:n=100000,r=0.02,seed=42",
		"rhg:n=100000,d=8,gamma=2.9,seed=42",
		"rmat:scale=16,edges=1048576,a=0.57,b=0.19,c=0.19,d=0.05,seed=7",
		// The KaGen surface form, factor-only kinds, and near misses.
		"rgg2d(n=100000;r=0.005)",
		"er(n=10;p=0.5;seed=3)",
		"hubcycle",
		"file:path=a(b).tsv,n=3",
		"web:n=4096,m=4,pt=0.7,seed=42",
		"er:n=10,n=20",
		"er:=5",
		"er:n=1,junk",
		"er(n=1",
		":",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_, p, err := Parse(spec)
		if err != nil {
			return
		}
		keys := p.Unused() // nothing read yet: every key of the spec
		for _, k := range keys {
			if k == "" {
				t.Fatalf("%q: accepted an empty key", spec)
			}
			if _, ok := p.String(k); !ok {
				t.Fatalf("%q: listed key %q cannot be read", spec, k)
			}
		}
		if left := p.Unused(); len(left) != 0 {
			t.Fatalf("%q: keys %q unused after reading every key", spec, left)
		}
		// Repeating a key of an accepted spec must not be accepted (the
		// colon form only: a "(" makes the appended text ambiguous).
		if len(keys) > 0 && !strings.Contains(spec, "(") {
			if _, _, err := Parse(spec + "," + keys[0] + "=1"); err == nil {
				t.Fatalf("%q: repeating key %q accepted", spec, keys[0])
			}
		}
		// Typed reads of arbitrary values return errors, never panic.
		for _, k := range keys {
			p.Int64(k, 0)
			p.Float(k, 0)
			p.Bool(k, false)
		}
		p.Seed()
	})
}
