package triangle

// CountOracle, RandomUndirected and OnArcs expose the retained engine,
// the random-graph helper and the arc-alignment check to the differential
// test in package triangle_test,
// which needs package gen (itself a client of this package) for the
// benchmark's web factors.
var (
	CountOracle      = countOracle
	RandomUndirected = randomUndirected
	OnArcs           = onArcs
)
