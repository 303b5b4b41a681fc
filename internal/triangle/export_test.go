package triangle

// CountOracle and RandomUndirected expose the retained engine and the
// random-graph helper to the differential test in package triangle_test,
// which needs package gen (itself a client of this package) for the
// benchmark's web factors.
var (
	CountOracle      = countOracle
	RandomUndirected = randomUndirected
)
