package gen

import "testing"

// BenchmarkBADedup measures the communication-free retracing core
// behind the public BarabasiAlbert.
func BenchmarkBADedup(b *testing.B) {
	const n, m = 20000, 8
	b.Run("retracing-core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BarabasiAlbert(n, m, 11)
		}
	})
}
