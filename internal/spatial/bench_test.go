package spatial

import (
	"fmt"
	"math/rand"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// benchCloud approximates one ingested frame: a few person-sized blobs
// plus ground scatter, at the point counts the ROI crop leaves behind.
func benchCloud(n int) geom.Cloud {
	rng := rand.New(rand.NewSource(42))
	return randomCloud(rng, n)
}

const benchRadius = 0.3 // DefaultAdaptiveConfig's FallbackEps

func BenchmarkGridBuild(b *testing.B) {
	cloud := benchCloud(2000)
	g := &Grid{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset(cloud, benchRadius)
	}
}

func BenchmarkGridRadius(b *testing.B) {
	cloud := benchCloud(2000)
	g := newGrid(cloud, benchRadius)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.RadiusInto(buf[:0], cloud[i%len(cloud)], benchRadius)
	}
}

// BenchmarkKNNAllPaths prices one KNNAll pass by each of its two paths
// on the same clouds, at the sizes around the small-cloud crossover
// (smallMax): "columns" is the column search, "small" the exact vector
// pass per point. viewport clouds are generated classifier inputs at k
// = 8, σz's; scene clouds are ingested frames thinned to n points at k
// = 5, the adaptive-ε curve's.
func BenchmarkKNNAllPaths(b *testing.B) {
	if !kernels.Vectorized() {
		b.Skip("the small-cloud path needs the vector kernels")
	}
	crowd := generatedScene(32, 6)
	for _, n := range []int{256, 384, 512, 640} {
		rng := rand.New(rand.NewSource(int64(n)))
		scene := crowd.Clone()
		rng.Shuffle(len(scene), func(i, j int) { scene[i], scene[j] = scene[j], scene[i] })
		for _, c := range []struct {
			name  string
			cloud geom.Cloud
			k     int
		}{
			{"viewport", generatedViewports(1, n)[0], 8},
			{"scene", scene[:min(n, len(scene))], 5},
		} {
			fn := func(int, []Neighbor) {}
			b.Run(fmt.Sprintf("%s/n=%d/columns", c.name, len(c.cloud)), func(b *testing.B) {
				var s allScratch
				for i := 0; i < b.N; i++ {
					s.build(c.cloud, c.k)
					s.allColumns(c.cloud, fn)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/small", c.name, len(c.cloud)), func(b *testing.B) {
				var s allScratch
				for i := 0; i < b.N; i++ {
					s.loadSmall(c.cloud)
					s.allSmall(c.cloud, c.k, fn)
				}
			})
		}
	}
}
