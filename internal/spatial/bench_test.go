package spatial

import (
	"math/rand"
	"testing"

	"hawccc/internal/geom"
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
