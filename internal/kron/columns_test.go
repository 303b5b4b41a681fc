package kron

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
)

// readFirst reads col on c and returns a weak pointer to the count it
// answered from, so the caller holds none of it.
func readFirst(col Column, c *graph.Graph) weak.Pointer[int64] {
	return weak.Make(&col.Direct(c)[0])
}

// TestColumnsDropSharedCountAfterLastRead: the columns that share one
// direct count of C (t and Δ share the triangle count; each census's
// types, directed and labeled, share the census) keep it only until the
// last of them has read it, so verify.Full holds one census at a time.
// A read after that counts again, to the same values.
func TestColumnsDropSharedCountAfterLastRead(t *testing.T) {
	a := gen.WebGraph(30, 3, 0.6, 1)
	labels := make([]int32, a.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 2)
	}
	p := MustProduct(a.WithLabels(labels, 2), gen.Clique(4))
	c, err := p.Materialize(1<<20, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	cols := Columns(p)
	byName := func(names ...string) []Column {
		var out []Column
		for _, col := range cols {
			if slices.Contains(names, col.Name) {
				out = append(out, col)
			}
		}
		return out
	}
	for _, group := range [][]Column{
		byName("vertex participation", "edge participation"),
		byName("directed vertex census (Thm. 4)"),
		byName("directed edge census (Thm. 5)"),
		byName("labeled vertex census (Thm. 6)"),
		byName("labeled edge census (Thm. 7)"),
	} {
		name, last := group[0].Name, len(group)-1
		if last < 1 || group[0].Skip != "" {
			t.Fatalf("%s: %d columns, skip %q", name, len(group), group[0].Skip)
		}
		w := readFirst(group[0], c)
		for _, col := range group[1:last] {
			col.Direct(c)
		}
		runtime.GC()
		if w.Value() == nil {
			t.Errorf("%s: the count was dropped before its last column read it", name)
		}
		group[last].Direct(c)
		runtime.GC()
		if w.Value() != nil {
			t.Errorf("%s: the count is still held after all %d columns read it", name, len(group))
		}
		if !slices.Equal(group[0].Direct(c), group[0].Eval.Vector()) {
			t.Errorf("%s: a read after the drop disagrees with the closed form", name)
		}
	}
}
