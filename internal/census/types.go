// Package census classifies and counts the *types* of triangles that
// vertices and edges participate in, for directed graphs (the paper's
// Figs. 4 and 5, Defs. 10 and 11) and vertex-labeled graphs (Fig. 6,
// Defs. 13 and 14).
//
// Every census walks each triangle once and classifies it
// combinatorially, from each of its vertices or arcs. The package's tests
// evaluate the paper's matrix formulas (diag(A_d A_r A_d^t) and friends)
// with the sparse reference kernels and hold the two equal, which pins
// down the orientation conventions once and for all.
//
// Orientation convention: A[i][j] = 1 means arc i → j. The paper's
// figures use the opposite (column-to-row) convention, so our type NAMES
// correspond to the paper's with the roles 's' (source) and 't' (target)
// exchanged; the 15-type taxonomy, the alias structure, and every
// Kronecker theorem are identical.
package census

import "fmt"

// Role is the relationship of a central vertex to one incident edge of a
// triangle.
type Role int8

const (
	// RoleSource: the central vertex points at the neighbor (v → x only).
	RoleSource Role = iota
	// RoleUndirected: the edge is reciprocal (v ↔ x).
	RoleUndirected
	// RoleTarget: the neighbor points at the central vertex (x → v only).
	RoleTarget
)

func (r Role) String() string {
	switch r {
	case RoleSource:
		return "s"
	case RoleUndirected:
		return "u"
	case RoleTarget:
		return "t"
	}
	return "?"
}

// Dir is the orientation of a non-central triangle edge relative to the
// listed order of its endpoints.
type Dir int8

const (
	// DirForward: first listed endpoint → second (x → y only).
	DirForward Dir = iota
	// DirUndirected: reciprocal.
	DirUndirected
	// DirBackward: second listed endpoint → first (y → x only).
	DirBackward
)

func (d Dir) String() string {
	switch d {
	case DirForward:
		return "+"
	case DirUndirected:
		return "o"
	case DirBackward:
		return "-"
	}
	return "?"
}

func (d Dir) flip() Dir {
	switch d {
	case DirForward:
		return DirBackward
	case DirBackward:
		return DirForward
	}
	return DirUndirected
}

// VertexType is one of the 15 canonical directed-triangle types from a
// vertex's perspective (Fig. 4): the roles of the central vertex on its
// two incident edges plus the direction of the opposite edge.
type VertexType int8

// The 15 canonical vertex types. Aliases (e.g. "ss-" ≡ "ss+", "ts+" ≡
// "st-") are canonicalized by CanonicalVertexType.
const (
	SSp VertexType = iota // ss+ : v→x, v→y, x→y
	SSo                   // sso : v→x, v→y, x↔y
	SUp                   // su+ : v→x, v↔y, x→y
	SUo                   // suo : v→x, v↔y, x↔y
	SUm                   // su- : v→x, v↔y, y→x
	STp                   // st+ : v→x, y→v, x→y (directed 3-cycle)
	STo                   // sto : v→x, y→v, x↔y
	STm                   // st- : v→x, y→v, y→x
	UUp                   // uu+ : v↔x, v↔y, x→y
	UUo                   // uuo : v↔x, v↔y, x↔y (fully reciprocal)
	UTp                   // ut+ : v↔x, y→v, x→y
	UTo                   // uto : v↔x, y→v, x↔y
	UTm                   // ut- : v↔x, y→v, y→x
	TTp                   // tt+ : x→v, y→v, x→y
	TTo                   // tto : x→v, y→v, x↔y
	NumVertexTypes
)

var vertexTypeNames = [NumVertexTypes]string{
	"ss+", "sso", "su+", "suo", "su-", "st+", "sto", "st-",
	"uu+", "uuo", "ut+", "uto", "ut-", "tt+", "tto",
}

func (t VertexType) String() string {
	if t < 0 || t >= NumVertexTypes {
		return fmt.Sprintf("VertexType(%d)", int(t))
	}
	return vertexTypeNames[t]
}

// AllVertexTypes lists the canonical vertex types in order.
func AllVertexTypes() []VertexType {
	out := make([]VertexType, NumVertexTypes)
	for i := range out {
		out[i] = VertexType(i)
	}
	return out
}

// CanonicalVertexType maps an arbitrary (role, role, dir) reading of a
// triangle from its central vertex to the canonical 15-type taxonomy,
// applying the symmetry (r1, r2, d) ≡ (r2, r1, flip(d)).
func CanonicalVertexType(r1, r2 Role, d Dir) VertexType {
	if r1 > r2 || (r1 == r2 && d == DirBackward) {
		r1, r2 = r2, r1
		d = d.flip()
	}
	switch {
	case r1 == RoleSource && r2 == RoleSource:
		if d == DirUndirected {
			return SSo
		}
		return SSp
	case r1 == RoleSource && r2 == RoleUndirected:
		switch d {
		case DirForward:
			return SUp
		case DirUndirected:
			return SUo
		default:
			return SUm
		}
	case r1 == RoleSource && r2 == RoleTarget:
		switch d {
		case DirForward:
			return STp
		case DirUndirected:
			return STo
		default:
			return STm
		}
	case r1 == RoleUndirected && r2 == RoleUndirected:
		if d == DirUndirected {
			return UUo
		}
		return UUp
	case r1 == RoleUndirected && r2 == RoleTarget:
		switch d {
		case DirForward:
			return UTp
		case DirUndirected:
			return UTo
		default:
			return UTm
		}
	default: // tt
		if d == DirUndirected {
			return TTo
		}
		return TTp
	}
}

// EdgeType is one of the 15 canonical directed-triangle types from an
// edge's perspective (Fig. 5): whether the central arc (i,j) is directed
// ('+') or reciprocal ('o'), plus the orientations of the edge i—w
// (read from i) and the edge w—j (read toward j).
type EdgeType int8

// The 15 canonical edge types. For a reciprocal central edge the reading
// from the opposite arc is the mirror type; mirrors that are not
// canonical (o--, oo+, oo-) are accounted at the opposite arc (see
// CanonicalEdgeReading).
const (
	Ppp EdgeType = iota // +++ : i→j, i→w, w→j
	Ppm                 // ++- : i→j, i→w, j→w
	Ppo                 // ++o : i→j, i→w, w↔j
	Pmp                 // +-+ : i→j, w→i, w→j
	Pmm                 // +-- : i→j, w→i, j→w
	Pmo                 // +-o : i→j, w→i, w↔j
	Pop                 // +o+ : i→j, i↔w, w→j
	Pom                 // +o- : i→j, i↔w, j→w
	Poo                 // +oo : i→j, i↔w, w↔j
	Opp                 // o++ : i↔j, i→w, w→j
	Opm                 // o+- : i↔j, i→w, j→w
	Opo                 // o+o : i↔j, i→w, w↔j
	Omp                 // o-+ : i↔j, w→i, w→j
	Omo                 // o-o : i↔j, w→i, w↔j
	Ooo                 // ooo : fully reciprocal
	NumEdgeTypes
)

var edgeTypeNames = [NumEdgeTypes]string{
	"+++", "++-", "++o", "+-+", "+--", "+-o", "+o+", "+o-", "+oo",
	"o++", "o+-", "o+o", "o-+", "o-o", "ooo",
}

func (t EdgeType) String() string {
	if t < 0 || t >= NumEdgeTypes {
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
	return edgeTypeNames[t]
}

// AllEdgeTypes lists the canonical edge types in order.
func AllEdgeTypes() []EdgeType {
	out := make([]EdgeType, NumEdgeTypes)
	for i := range out {
		out[i] = EdgeType(i)
	}
	return out
}

// CanonicalEdgeReading maps a raw reading (central directed?, d1, d2) of a
// triangle from the arc (i,j) to its canonical type, reporting whether the
// reading should be recorded at this arc (true) or is the mirror of a
// canonical reading recorded at the opposite arc (false). Directed central
// arcs always record; reciprocal central arcs record unless the reading is
// one of the non-canonical mirrors o--, oo+, oo-.
func CanonicalEdgeReading(centralDirected bool, d1, d2 Dir) (EdgeType, bool) {
	if centralDirected {
		return EdgeType(3*int(dirIdx(d1)) + int(dirIdx(d2))), true
	}
	switch {
	case d1 == DirForward && d2 == DirForward:
		return Opp, true
	case d1 == DirForward && d2 == DirBackward:
		return Opm, true
	case d1 == DirForward && d2 == DirUndirected:
		return Opo, true
	case d1 == DirBackward && d2 == DirForward:
		return Omp, true
	case d1 == DirBackward && d2 == DirUndirected:
		return Omo, true
	case d1 == DirUndirected && d2 == DirUndirected:
		return Ooo, true
	case d1 == DirBackward && d2 == DirBackward:
		return Opp, false // mirror of o++ at the opposite arc
	case d1 == DirUndirected && d2 == DirForward:
		return Omo, false // mirror of o-o
	default: // d1 == DirUndirected && d2 == DirBackward
		return Opo, false // mirror of o+o
	}
}

// dirIdx orders +, -, o as 0, 1, 2 to match the Ppp..Poo block layout.
func dirIdx(d Dir) int {
	switch d {
	case DirForward:
		return 0
	case DirBackward:
		return 1
	default:
		return 2
	}
}
