package graph

import "fmt"

// IsLabeled reports whether the graph carries vertex labels.
func (g *Graph) IsLabeled() bool { return g.labels != nil }

// NumLabels returns the size of the label set |L| (0 if unlabeled).
func (g *Graph) NumLabels() int { return g.nLabels }

// Label returns the label (color) of v. Panics if unlabeled.
func (g *Graph) Label(v int32) int32 {
	if g.labels == nil {
		panic("graph: Label on unlabeled graph")
	}
	return g.labels[v]
}

// Labels returns a copy of the label vector, or nil if unlabeled.
func (g *Graph) Labels() []int32 {
	if g.labels == nil {
		return nil
	}
	return append([]int32(nil), g.labels...)
}

// WithLabels returns a copy of g carrying the given labels. labels must
// have length NumVertices with values in [0, numLabels).
func (g *Graph) WithLabels(labels []int32, numLabels int) *Graph {
	if len(labels) != g.n {
		panic(fmt.Sprintf("graph: WithLabels length %d, want %d", len(labels), g.n))
	}
	for v, l := range labels {
		if l < 0 || int(l) >= numLabels {
			panic(fmt.Sprintf("graph: label %d at vertex %d out of range [0,%d)", l, v, numLabels))
		}
	}
	out := g.Clone()
	out.labels = append([]int32(nil), labels...)
	out.nLabels = numLabels
	return out
}

// Unlabeled returns a copy of g with labels stripped.
func (g *Graph) Unlabeled() *Graph {
	out := g.Clone()
	out.labels = nil
	out.nLabels = 0
	return out
}

// LabelCounts returns how many vertices carry each label.
func (g *Graph) LabelCounts() []int64 {
	counts := make([]int64, g.nLabels)
	for _, l := range g.labels {
		counts[l]++
	}
	return counts
}
