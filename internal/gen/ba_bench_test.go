package gen

import (
	"testing"

	"kronvalid/internal/model"
)

// BenchmarkBADedup measures the communication-free retracing core
// behind the ba kind, collected into an explicit graph.
func BenchmarkBADedup(b *testing.B) {
	const n, m = 20000, 8
	b.Run("retracing-core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromModel(model.NewBarabasiAlbert(n, m, 0, 11, 0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
