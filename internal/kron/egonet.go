package kron

import (
	"fmt"
	"slices"

	"kronvalid/internal/graph"
)

// Egonet is the induced subgraph of a product vertex's closed
// neighborhood, extracted directly from the factors without materializing
// C — the paper's §VI validation device (Fig. 7).
type Egonet struct {
	// Center is the product vertex the egonet is built around.
	Center int64
	// Local is the induced subgraph on {Center} ∪ N(Center); vertex 0 is
	// the center.
	Local *graph.Graph
	// ProductIDs maps local vertex ids back to product vertex ids.
	ProductIDs []int64
	// Degree is the center's degree in C (excluding its self loop).
	Degree int64
	// LocalTriangles is the number of triangles at the center within the
	// egonet, which equals t_C(Center) because every triangle through a
	// vertex lies inside its neighborhood.
	LocalTriangles int64
}

// ExtractEgonet builds the egonet of product vertex v. d_C(v) must be at
// most maxDegree (guarding against accidentally expanding a hub). Each
// neighbor u finds its later neighbors the cheaper of two ways: probe
// every later id in the egonet, or walk u's row and binary-search the
// sorted ids. So the cost is Σ_u min(d_C(v), d_C(u)) probes or
// searches, each O(k log d).
func ExtractEgonet(p *Product, v int64, maxDegree int64) (*Egonet, error) {
	if !p.IsSymmetric() {
		return nil, fmt.Errorf("kron: egonet extraction requires an undirected product")
	}
	deg := p.OutDegreeRaw(v)
	if deg > maxDegree {
		return nil, fmt.Errorf("kron: egonet degree %d exceeds limit %d", deg, maxDegree)
	}
	// Closed neighborhood, center first, self loop excluded from the
	// neighbor list. EachNeighbor yields increasing product ids, so
	// ids[1:] is sorted and local ids resolve by binary search — no
	// per-egonet hash map.
	ids := make([]int64, 0, deg+1)
	ids = append(ids, v)
	p.EachNeighbor(v, func(u int64) bool {
		if u != v {
			ids = append(ids, u)
		}
		return true
	})
	// Induced edges: center ↔ neighbors by construction, then each
	// neighbor pair once, from its lower end. Self loops are omitted —
	// they never affect triangle counts.
	var edges []graph.Edge
	for li := 1; li < len(ids); li++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(li)})
	}
	for a := 1; a < len(ids); a++ {
		u, later := ids[a], ids[a+1:]
		if p.OutDegreeRaw(u) > int64(len(later)) {
			for b, w := range later {
				if p.HasEdge(u, w) {
					edges = append(edges, graph.Edge{U: int32(a), V: int32(a + 1 + b)})
				}
			}
			continue
		}
		p.EachNeighbor(u, func(w int64) bool {
			if b, ok := slices.BinarySearch(later, w); ok {
				edges = append(edges, graph.Edge{U: int32(a), V: int32(a + 1 + b)})
			}
			return w < later[len(later)-1]
		})
	}
	// Every triangle at the center is one edge between two neighbors.
	return &Egonet{
		Center:         v,
		Local:          graph.FromEdges(len(ids), edges, true),
		ProductIDs:     ids,
		Degree:         p.Degree(v),
		LocalTriangles: int64(len(edges) - (len(ids) - 1)),
	}, nil
}

// VerifyEgonet checks one product vertex against the Kronecker formula:
// extracts the egonet, counts triangles at the center directly, and
// compares with the formula value t.At(center). It returns the egonet for
// inspection and an error on mismatch. This is exactly the paper's §VI
// spot-validation procedure.
func VerifyEgonet(p *Product, t *KronVecSum, v int64, maxDegree int64) (*Egonet, error) {
	ego, err := ExtractEgonet(p, v, maxDegree)
	if err != nil {
		return nil, err
	}
	want := t.At(v)
	if ego.LocalTriangles != want {
		return ego, fmt.Errorf("kron: egonet of %d has %d triangles, formula says %d",
			v, ego.LocalTriangles, want)
	}
	return ego, nil
}
