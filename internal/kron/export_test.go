package kron

// FactorStatsForTest exposes the per-factor statistics a MultiProduct's
// closed forms read, for the sharing test in package kron_test.
func (p *MultiProduct) FactorStatsForTest() ([]*FactorTriangleStats, error) {
	stats, _, err := p.factorStats()
	return stats, err
}
