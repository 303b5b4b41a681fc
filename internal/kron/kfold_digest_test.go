package kron_test

import (
	"context"
	"strings"
	"testing"

	"kronvalid/internal/distgen"
	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/spec"
	"kronvalid/internal/stream"
	"kronvalid/internal/verify"
)

// threeFactorPins are digests of (A ⊗ B) ⊗ C streamed as the two-factor
// product of the materialized A ⊗ B with C; the three-factor product must
// stream the same bytes.
var threeFactorPins = []struct {
	factors [3]string
	digest  string
	tau     int64
}{
	{[3]string{"web:n=200,m=3,seed=42", "clique:n=5", "hubcycle:c=4"}, "f9203a4743dce972", 473760},
	{[3]string{"web:n=200,m=3,seed=42+loops", "jclique:n=4", "cycle:n=5+loops"}, "efbab13a54ea4130", 1970960},
}

func threeFactorProduct(t *testing.T, specs [3]string) *kron.Product {
	t.Helper()
	var fs []*graph.Graph
	for _, s := range specs {
		g, err := spec.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, g)
	}
	return kron.MustProduct(fs...)
}

// TestThreeFactorProductDigests pins the canonical stream of two
// three-factor products at 1, 4 and 8 shards, and their τ.
func TestThreeFactorProductDigests(t *testing.T) {
	for _, pin := range threeFactorPins {
		p := threeFactorProduct(t, pin.factors)
		for _, w := range []int{1, 4, 8} {
			d, _, err := gio.DigestSource(context.Background(), distgen.NewPlan(p, w), stream.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if d != pin.digest {
				t.Errorf("%v at %d shards: digest %s, want %s", pin.factors, w, d, pin.digest)
			}
		}
		if tau, err := kron.TriangleTotal(p); err != nil || tau != pin.tau {
			t.Errorf("%v: τ = %d, %v; want %d", pin.factors, tau, err, pin.tau)
		}
	}
}

// TestThreeFactorValidateFull: every closed form that holds for k
// factors agrees with a recount of the materialized product, and the
// two-factor theorems report themselves skipped.
func TestThreeFactorValidateFull(t *testing.T) {
	for _, pin := range threeFactorPins {
		r, err := verify.Full(threeFactorProduct(t, pin.factors), 1<<20, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		ran := map[string]bool{}
		var skipped []string
		for _, c := range r.Checks {
			if c.Ran {
				ran[c.Name] = c.Passed
			} else {
				skipped = append(skipped, c.Name)
			}
		}
		for _, name := range []string{"degree formula", "vertex participation", "edge participation", "wedge count"} {
			if passed, ok := ran[name]; !ok || !passed {
				t.Errorf("%v: check %q ran=%v passed=%v", pin.factors, name, ok, passed)
			}
		}
		if got := strings.Join(skipped, "; "); got != "truss decomposition (Thm. 3); directed vertex census (Thm. 4); directed edge census (Thm. 5); labeled vertex census (Thm. 6); labeled edge census (Thm. 7)" {
			t.Errorf("%v: skipped %q", pin.factors, got)
		}
	}
}
