package projection

import (
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

// BenchmarkHeightVariation prices HAP's σz channel for one classifier
// input: a canonical (height-major) 225-point viewport cloud, the 15×15
// image a cluster is projected into. It cycles through a set of clouds
// so no one cloud's layout stays in the branch predictor. "synthetic"
// clouds are a blob with one point in six a duplicate; "generated" ones
// are dataset clusters padded from the object pool and framed by
// Viewport, as HAWC builds them (see generatedInputs).
func BenchmarkHeightVariation(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	synthetic := make([]geom.Cloud, 64)
	for i := range synthetic {
		synthetic[i] = canonical(viewportCloud(rng, 225))
	}
	for _, c := range []struct {
		name   string
		clouds []geom.Cloud
	}{
		{"synthetic", synthetic},
		{"generated", generatedInputs(64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			sigmaSink = make([]float64, 225)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sigmaSink = heightVariation(sigmaSink, c.clouds[i%len(c.clouds)], KNeighbors)
			}
		})
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
