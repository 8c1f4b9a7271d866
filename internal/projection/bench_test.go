package projection

import (
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

// BenchmarkHeightVariation prices HAP's σz channel for one classifier
// input: a canonical (height-major) 225-point viewport cloud, the
// 15×15 image a cluster is projected into. It cycles through a set of
// clouds so no one cloud's layout stays in the branch predictor.
func BenchmarkHeightVariation(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	clouds := make([]geom.Cloud, 64)
	for i := range clouds {
		clouds[i] = canonical(viewportCloud(rng, 225))
	}
	sigmaSink = make([]float64, 225)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigmaSink = heightVariation(sigmaSink, clouds[i%len(clouds)], KNeighbors)
	}
}

// sigmaSink keeps the benchmarked σz from being optimized away.
var sigmaSink []float64

// BenchmarkCanonical prices the keyed (z, x, y) sort of one 225-point
// classifier input into pooled scratch.
func BenchmarkCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	clouds := make([]geom.Cloud, 64)
	for i := range clouds {
		clouds[i] = viewportCloud(rng, 225)
	}
	var s scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.canonical(clouds[i%len(clouds)])
	}
}
