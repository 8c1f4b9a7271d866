package features

import (
	"math"
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

// personCloud mimics a pedestrian: narrow vertical distribution 0…1.7 m
// above ground (sensor z from −3 to −1.3).
func personCloud(rng *rand.Rand, n int) geom.Cloud {
	c := make(geom.Cloud, n)
	for i := range c {
		c[i] = geom.P(
			20+rng.NormFloat64()*0.12,
			rng.NormFloat64()*0.15,
			-2.6+rng.Float64()*1.3,
		)
	}
	return c
}

// bushCloud mimics a low, wide bush.
func bushCloud(rng *rand.Rand, n int) geom.Cloud {
	c := make(geom.Cloud, n)
	for i := range c {
		c[i] = geom.P(
			20+rng.NormFloat64()*0.5,
			rng.NormFloat64()*0.5,
			-2.6+rng.Float64()*0.4,
		)
	}
	return c
}

func TestExtractLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := Extract(personCloud(rng, 60))
	if len(v) != VectorLen {
		t.Fatalf("vector length = %d, want %d", len(v), VectorLen)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %d is %v", i, x)
		}
	}
}

func TestExtractEmpty(t *testing.T) {
	v := Extract(nil)
	if len(v) != VectorLen {
		t.Fatalf("length %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("empty cloud feature %d = %v, want 0", i, x)
		}
	}
}

func TestHeightFeatureSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	person := Extract(personCloud(rng, 80))
	bush := Extract(bushCloud(rng, 80))
	hIdx := NumSlices * PerSlice // global height feature
	if person[hIdx] <= bush[hIdx] {
		t.Errorf("person height %v should exceed bush height %v", person[hIdx], bush[hIdx])
	}
	// Person occupies upper slices the bush never reaches.
	upperSlice := 5 * PerSlice // slice covering 1.0–1.2 m above ground
	if person[upperSlice] == 0 {
		t.Error("person should have points in upper slices")
	}
	if bush[upperSlice] != 0 {
		t.Error("low bush should not reach slice 5")
	}
}

func TestSliceCountsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := Extract(personCloud(rng, 100))
	var sum float64
	for i := 0; i < NumSlices; i++ {
		sum += v[i*PerSlice]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("slice counts sum to %v, want 1", sum)
	}
}

func TestSliceClamping(t *testing.T) {
	// Points below zBase and above the top slice must clamp, not drop.
	c := geom.Cloud{geom.P(0, 0, -3.5), geom.P(0, 0, 0.5)}
	v := Extract(c)
	if v[0] != 0.5 { // slice 0 gets the low point
		t.Errorf("slice 0 count = %v, want 0.5", v[0])
	}
	if v[(NumSlices-1)*PerSlice] != 0.5 {
		t.Errorf("top slice count = %v, want 0.5", v[(NumSlices-1)*PerSlice])
	}
}

func TestCircularity(t *testing.T) {
	// Circular footprint → circularity near 1.
	var circle geom.Cloud
	for i := 0; i < 64; i++ {
		a := float64(i) / 64 * 2 * math.Pi
		circle = append(circle, geom.P(math.Cos(a), math.Sin(a), -1))
	}
	if got := circularity(circle); got < 0.95 {
		t.Errorf("circle circularity = %v, want ≈1", got)
	}
	// A line → circularity near 0.
	var line geom.Cloud
	for i := 0; i < 20; i++ {
		line = append(line, geom.P(float64(i), 0, -1))
	}
	if got := circularity(line); got > 0.05 {
		t.Errorf("line circularity = %v, want ≈0", got)
	}
}

func TestBoundaryRegularity(t *testing.T) {
	// Equidistant ring: regularity 0. Mixed radii: > 0.
	var ring geom.Cloud
	for i := 0; i < 16; i++ {
		a := float64(i) / 16 * 2 * math.Pi
		ring = append(ring, geom.P(math.Cos(a), math.Sin(a), 0))
	}
	if got := boundaryRegularity(ring); got > 1e-9 {
		t.Errorf("ring regularity = %v, want 0", got)
	}
	mixed := append(ring.Clone(), geom.P(5, 0, 0))
	if got := boundaryRegularity(mixed); got <= 0 {
		t.Errorf("irregular shape regularity = %v, want > 0", got)
	}
}
