package kron

import (
	"fmt"

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

// ExtractEgonet builds the egonet of product vertex v. Cost is
// O(d_C(v)²) edge probes against the factors; d_C(v) must be at most
// maxDegree (guarding against accidentally expanding a hub).
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
	// Induced edges: center ↔ neighbors by construction; neighbor pairs
	// via factor probes. Self loops are omitted — they never affect
	// triangle counts.
	var edges []graph.Edge
	for li := 1; li < len(ids); li++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(li)})
	}
	for a := 1; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			if p.HasEdge(ids[a], ids[b]) {
				edges = append(edges, graph.Edge{U: int32(a), V: int32(b)})
			}
		}
	}
	local := graph.FromEdges(len(ids), edges, true)

	ego := &Egonet{
		Center:     v,
		Local:      local,
		ProductIDs: ids,
		Degree:     p.Degree(v),
	}
	ego.LocalTriangles = centerTriangles(local)
	return ego, nil
}

// centerTriangles counts triangles through local vertex 0.
func centerTriangles(g *graph.Graph) int64 {
	u := g
	if !u.IsSymmetric() {
		u = u.Undirected()
	}
	u = u.WithoutLoops()
	nb := u.Neighbors(0)
	var count int64
	for x := 0; x < len(nb); x++ {
		for y := x + 1; y < len(nb); y++ {
			if u.HasEdge(nb[x], nb[y]) {
				count++
			}
		}
	}
	return count
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
