package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kronvalid/internal/gio"
	"kronvalid/internal/model"
)

func TestParseFamilies(t *testing.T) {
	cases := []struct {
		spec     string
		vertices int
		loops    int64
	}{
		{"clique:n=5", 5, 0},
		{"jclique:n=4", 4, 4},
		{"hubcycle:c=4", 5, 0},
		{"hubcycle", 5, 0},
		{"cycle:n=7", 7, 0},
		{"path:n=7", 7, 0},
		{"star:n=7", 7, 0},
		{"er:n=30,p=0.2,seed=3", 30, 0},
		{"ba:n=40,m=2,seed=3", 40, 0},
		{"web:n=50,m=3,pt=0.6,seed=3", 50, 0},
		{"pa1:n=25,seed=3", 25, 0},
		{"rmat:scale=5,seed=3", 32, 0},
		{"clique:n=3+loops", 3, 3},
	}
	for _, c := range cases {
		g, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.NumVertices() != c.vertices {
			t.Errorf("%s: vertices = %d, want %d", c.spec, g.NumVertices(), c.vertices)
		}
		if g.NumLoops() != c.loops {
			t.Errorf("%s: loops = %d, want %d", c.spec, g.NumLoops(), c.loops)
		}
	}
}

func TestParseDeterministic(t *testing.T) {
	a, err := Parse("web:n=60,m=3,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("web:n=60,m=3,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same spec produced different graphs")
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"nope:n=3", "clique", "clique:n=x", "er:n=10,p=zz",
		"clique:n", "file:n=3", "ba:n=10,seed=-1",
		"er:n=10,n=20,p=0.5", // duplicate key
		"clique:n=5,=3",      // empty key
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q: expected error", s)
		}
	}
}

// TestSplitKronErrors pins the message each malformed product gets: a
// product's own "+loops" is named as such, not as a parenthesis fault.
func TestSplitKronErrors(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"kron(a=kron(a=clique:n=2;b=clique:n=2)+loops;b=path:n=3)", "a product takes no +loops suffix"},
		{"kron(a=clique:n=2;b=clique:n=2)+loops", "a product takes no +loops suffix"},
		{"kron(a=clique:n=2;b=clique:n=2)x", `"x" follows the product's closing parenthesis`},
		{"kron(a=ba(n=50;d=2;b=clique:n=3)", "unbalanced parentheses"},
		{"kron(a=clique:n=3);b=(clique:n=4)", "unbalanced parentheses"},
		{"kron(a=clique:n=3;b=clique:n=4", "unbalanced parentheses"},
		{"kron(a=clique:n=3;b=clique:n=4))", "unbalanced parentheses"},
		{"kron(", "unbalanced parentheses"},
		{"kron(a=clique:n=3)", "want kron(a=<factor>;b=<factor>)"},
		{"kron(a=;b=clique:n=3)", "want kron(a=<factor>;b=<factor>)"},
		{"kron(a=kron(a=clique:n=2);b=cycle:n=3)", "want kron(a=<factor>;b=<factor>)"},
	} {
		_, ok, err := SplitKron(c.spec)
		if !ok || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("SplitKron(%q) = ok %v, err %v; want an error containing %q", c.spec, ok, err, c.want)
		}
	}
	for _, s := range []string{
		"kron(a=kron(a=clique:n=2+loops;b=clique:n=2);b=path:n=3+loops)",
		"kron(a=ba(n=50;d=2)+loops;b=clique:n=3)",
	} {
		if _, ok, err := SplitKron(s); !ok || err != nil {
			t.Errorf("SplitKron(%q) = ok %v, err %v; want factors", s, ok, err)
		}
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.tsv")
	if err := os.WriteFile(path, []byte("0\t1\n1\t2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := Parse("file:path=" + path + ",n=3")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdgesUndirected() != 2 || !g.IsSymmetric() {
		t.Fatal("file parse wrong")
	}
}

func TestParseAllErrorBranches(t *testing.T) {
	cases := []string{
		"jclique",            // missing n
		"cycle",              // missing n
		"path",               // missing n
		"star",               // missing n
		"ba",                 // missing n
		"web",                // missing n
		"pa1",                // missing n
		"rmat",               // missing scale
		"er",                 // missing n
		"hubcycle:c=x",       // bad int
		"web:n=10,m=2,pt=zz", // bad float
		"rmat:scale=5,a=zz",  // bad float
		"rmat:scale=5,edges=zz",
		"file:path=/does/not/exist,n=3",
		"er:n=10+loops+loops", // malformed suffix params
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q: expected error", s)
		}
	}
}

func TestParseLoopsSuffixOnRandom(t *testing.T) {
	g, err := Parse("ba:n=20,m=2,seed=4+loops")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLoops() != 20 {
		t.Errorf("loops = %d, want 20", g.NumLoops())
	}
}

func TestParseRejectsUnknownKeys(t *testing.T) {
	for _, s := range []string{
		"er:n=10,pp=0.5", // typo'd probability must not silently default
		"clique:n=5,m=3",
		"rmat:scale=5,scle=6",
		"clique:n=5,chunks=4", // a registry parameter on a factor-only kind
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q: unknown key accepted", s)
		}
	}
	// The parameters every registry kind shares mean on the factor
	// surface what they mean in gengen: chunks= is part of the er stream
	// identity, s0= sizes the ba seed star.
	for _, s := range []string{
		"er:n=300,p=0.05,seed=3,chunks=4",
		"ba:n=300,d=3,s0=10,seed=3",
	} {
		g, err := Parse(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		mg, err := model.New(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.NumArcs(), 2*int64(len(model.Collect(mg))); got != want {
			t.Errorf("%q: factor has %d arcs, the model stream symmetrizes to %d", s, got, want)
		}
	}
}

func TestParseOutOfRangeRandomParams(t *testing.T) {
	// An out-of-range ER probability is the error gengen reports for the
	// same string, not a silent clamp (the Go function ErdosRenyi keeps
	// its documented clamp; see gen's TestErdosRenyi).
	for _, s := range []string{"er:n=20,p=1.5,seed=1", "er:n=20,p=-1,seed=1"} {
		_, err := Parse(s)
		if err == nil || !strings.Contains(err.Error(), "out of [0, 1]") {
			t.Errorf("%q: err = %v, want the registry's range error", s, err)
		}
		if _, merr := model.New(s); merr == nil {
			t.Errorf("%q: the registry accepts what the factor surface rejects", s)
		}
	}
	// G(n, m) out of range is a spec error, not a process crash.
	if _, err := Parse("gnm:n=10,m=1000"); err == nil {
		t.Error("gnm m > pairs accepted")
	}
	if _, err := Parse("gnm:n=10,m=-1"); err == nil {
		t.Error("gnm negative m accepted")
	}
}

func TestParseCapacityErrorsNotPanics(t *testing.T) {
	// Sizes reachable from spec input that an in-memory factor cannot
	// hold must surface as spec errors — before anything is allocated —
	// never as process panics or allocation blow-ups.
	for _, s := range []string{
		"gnm:n=300000,m=9000000000",       // within pair range, past the chunk budget
		"gnm:n=300000,m=4000000000",       // a valid model, 16x the explicit-graph arc cap
		"rmat:scale=30,edges=68719476736", // past the explicit-graph arc cap
		"rmat:scale=26",                   // the registry default 16·2^26, not a silent clamp
		"rmat:scale=31,edges=10",          // 2^31 vertices do not fit int32
		"grid2d:x=65536,y=65536,p=0",      // likewise, with no arcs at all
		"rgg2d:n=3000000000,r=0.001",
		"er:n=3000000000,p=0",
	} {
		g, err := Parse(s)
		if err == nil {
			t.Errorf("%q: expected a capacity error, got a %d-vertex graph", s, g.NumVertices())
		}
	}
	_, err := Parse("rmat:scale=26")
	if err == nil || !strings.Contains(err.Error(), "edges=") || !strings.Contains(err.Error(), "gengen") {
		t.Errorf("rmat over the cap: err = %v, want a pointer to edges= and gengen", err)
	}
}

// TestParseRejectsOutOfRangeFactorParams: every factor-only kind refuses
// a parameter outside its range with an error that names it, where each
// of these once panicked (an index out of range, a negative makeslice,
// a generator's own guard) or, for pt, named the same graph as pt = 0
// or 1. Each bound's edge is accepted.
func TestParseRejectsOutOfRangeFactorParams(t *testing.T) {
	for _, c := range []struct{ spec, param string }{
		{"web:n=5,m=5", `"n"`},
		{"web:n=3,m=0", `"m"`},
		{"web:n=10,pt=1.5", `"pt"`},
		{"web:n=10,pt=-1", `"pt"`},
		{"web:n=10,pt=NaN", `"pt"`},
		{"web:n=10,pt=Inf", `"pt"`},
		{"web:n=100000000,m=3", `"n"`},
		{"path:n=-1", `"n"`},
		{"path:n=0", `"n"`},
		{"jclique:n=-1", `"n"`},
		{"jclique:n=16385", `"n"`},
		{"clique:n=-3", `"n"`},
		{"clique:n=16385", `"n"`},
		{"star:n=-2", `"n"`},
		{"cycle:n=2", `"n"`},
		{"cycle:n=9223372036854775807", `"n"`},
		{"hubcycle:c=0", `"c"`},
		{"hubcycle:c=2", `"c"`},
		{"pa1:n=1", `"n"`},
		{"file:path=x.tsv,n=-3", `"n"`},
	} {
		g, err := Parse(c.spec)
		if err == nil {
			t.Errorf("%q: accepted, a %d-vertex graph", c.spec, g.NumVertices())
			continue
		}
		if !strings.Contains(err.Error(), "parameter "+c.param) {
			t.Errorf("%q: error %q does not name parameter %s", c.spec, err, c.param)
		}
	}
	for _, s := range []string{
		"web:n=2,m=1", "web:n=10,pt=0", "web:n=10,pt=1", "path:n=1", "jclique:n=1",
		"clique:n=1", "star:n=1", "cycle:n=3", "hubcycle:c=3", "pa1:n=2",
	} {
		if _, err := Parse(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

func TestParseRGGFactors(t *testing.T) {
	g, err := Parse("rgg2d:n=400,r=0.08,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 || !g.IsSymmetric() || g.NumEdgesUndirected() == 0 {
		t.Fatal("rgg2d factor malformed or empty")
	}
	g3, err := Parse("rgg3d:n=300,r=0.2,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumVertices() != 300 || g3.NumEdgesUndirected() == 0 {
		t.Fatal("rgg3d factor malformed or empty")
	}
	// Determinism and the +loops suffix compose like every other kind.
	h, err := Parse("rgg2d:n=400,r=0.08,seed=5+loops")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLoops() != 400 {
		t.Errorf("rgg2d+loops has %d loops, want 400", h.NumLoops())
	}
	for _, bad := range []string{
		"rgg2d:n=400",               // r required
		"rgg2d:n=400,r=2",           // radius out of (0, 1]
		"rgg2d:n=400,r=0.1,rad=0.2", // unknown key
		"rgg3d:n=-1,r=0.1",          // negative n
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseBAErrorsNotPanics(t *testing.T) {
	// The streamed BA core's range caps (and the legacy n > m >= 1
	// guard) must surface as spec errors, never process panics.
	for _, bad := range []string{
		"ba:n=1048578,m=1048577", // m past the attachment-degree cap
		"ba:n=3,m=3",             // n < m+1
		"ba:n=10,m=0",            // m < 1
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseBADegreeAliases(t *testing.T) {
	a, err := Parse("ba:n=300,m=3,seed=6")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("ba:n=300,d=3,seed=6")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("ba m= and d= factor specs differ")
	}
	if _, err := Parse("ba:n=300,m=3,d=4"); err == nil {
		t.Error("disagreeing ba m/d aliases accepted")
	}
	// No silent attachment degree: the registry's rule.
	if _, err := Parse("ba:n=40,seed=3"); err == nil || !strings.Contains(err.Error(), `"d"`) {
		t.Errorf("ba without m/d: err = %v, want missing \"d\"", err)
	}
}

// TestFactorDigestsPinned holds every registry-kind factor spec that
// both grammars accepted before the factor surface delegated to the
// registry to the graph it built then (digests recorded at that
// commit). A row moves only with its kind's golden model digest, under
// the re-pin policy (golden_digest_test.go's History): the gnm, rgg2d,
// rgg3d and rhg rows with the split-tree draw, the rmat rows with the
// blocked descent.
func TestFactorDigestsPinned(t *testing.T) {
	for _, c := range []struct{ spec, digest string }{
		{"er:n=300,p=0.05,seed=3", "984542ff41f54e33"},
		{"er(n=300;p=0.05;seed=3)", "984542ff41f54e33"},
		{"er:n=300,p=0.05,seed=3+loops", "197922154cc221b2"},
		{"gnm:n=300,m=900,seed=3", "72368fe77dfd00a7"},
		{"ba:n=300,m=3,seed=3", "1d34f626ef8ca166"},
		{"ba:n=300,d=3,seed=3", "1d34f626ef8ca166"},
		{"rmat:scale=8,seed=3", "74ad375ced1217c2"},
		{"rmat:scale=8,edges=1500,a=0.5,b=0.2,c=0.2,d=0.1,seed=3", "15d21cb778a39a8b"},
		{"rgg2d:n=400,r=0.08,seed=3", "39a50a42adda6cb6"},
		{"rgg3d:n=300,r=0.2,seed=3", "b638554afdf63ded"},
		{"rhg:n=400,d=8,gamma=2.8,seed=3", "a7b4bdc4c1cf922b"},
		{"grid2d:x=12,y=9,wrap=true", "eabf5b2c55b1785e"},
		{"grid3d:x=6,y=5,z=4,p=0.6,seed=3", "7ea311bb1899d73c"},
	} {
		g, err := Parse(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if got := gio.GraphDigest(g); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.spec, got, c.digest)
		}
	}
}

// TestFactorSpecsResolveThroughRegistry is the one test of "every
// registered model kind is a factor": a kind registered without a row
// here fails it, and each row checks the factor against the
// generator's own stream.
func TestFactorSpecsResolveThroughRegistry(t *testing.T) {
	specs := map[string]string{
		"ba":      "ba:n=200,d=3,seed=5",
		"chunglu": "chunglu:n=300,dmax=20,gamma=2.5,seed=5",
		"er":      "er:n=200,p=0.05,seed=5",
		"gnm":     "gnm:n=200,m=700,seed=5",
		"grid2d":  "grid2d:x=11,y=7,p=0.7,wrap=true,seed=5",
		"grid3d":  "grid3d:x=5,y=4,z=3,seed=5",
		"rgg2d":   "rgg2d:n=300,r=0.1,seed=5",
		"rgg3d":   "rgg3d:n=200,r=0.25,seed=5",
		"rhg":     "rhg:n=300,d=8,gamma=2.7,seed=5",
		"rmat":    "rmat:scale=7,seed=5",
	}
	for _, kind := range model.Kinds() {
		s, ok := specs[kind]
		if !ok {
			t.Errorf("registered kind %q has no factor-spec row in this test", kind)
			continue
		}
		mg, err := model.New(s)
		if err != nil {
			t.Fatal(err)
		}
		// Undirected kinds stream each pair once; rmat streams directed
		// arcs, so count distinct unordered pairs.
		pairs := map[[2]int64]bool{}
		for _, a := range model.Collect(mg) {
			pairs[[2]int64{min(a.U, a.V), max(a.U, a.V)}] = true
		}
		streamed := int64(len(pairs))
		if streamed == 0 {
			t.Fatalf("%s: empty stream, test is vacuous", s)
		}
		g, err := Parse(s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if !g.IsSymmetric() || g.HasAnyLoop() {
			t.Errorf("%s: factor is not a simple undirected graph", s)
		}
		if got, want := int64(g.NumVertices()), mg.NumVertices(); got != want {
			t.Errorf("%s: %d vertices, generator has %d", s, got, want)
		}
		if got, want := g.NumArcs(), 2*streamed; got != want {
			t.Errorf("%s: %d arcs, want twice the %d pairs streamed", s, got, streamed)
		}
		looped, err := Parse(s + "+loops")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := looped.NumArcs()-g.NumArcs(), int64(g.NumVertices()); got != want || looped.NumLoops() != want {
			t.Errorf("%s+loops: %d arcs added, %d loops, want %d of each", s, got, looped.NumLoops(), want)
		}
		// Name() — what manifests and cache keys record — is itself a
		// factor spec for the same graph.
		named, err := Parse(mg.Name())
		if err != nil {
			t.Errorf("%s: Name() %q is not a factor spec: %v", s, mg.Name(), err)
			continue
		}
		if a, b := gio.GraphDigest(named), gio.GraphDigest(g); a != b {
			t.Errorf("%s: Parse(Name()) digest %s != %s", s, a, b)
		}
	}
	if _, err := Parse("nosuchkind:n=3"); err == nil || !strings.Contains(err.Error(), "unknown generator kind") {
		t.Errorf("unknown kind: err = %v", err)
	}
}
