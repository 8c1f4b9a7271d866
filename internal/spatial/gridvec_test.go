package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// withVectorized runs fn twice — once with the SIMD kernels forced on,
// once forced off — restoring the previous setting afterwards. On
// machines without AVX both runs take the scalar path, which keeps the
// comparison trivially true rather than skipping coverage.
func withVectorized(t *testing.T, fn func(vec bool)) {
	t.Helper()
	prev := kernels.SetVectorized(true)
	defer kernels.SetVectorized(prev)
	fn(true)
	kernels.SetVectorized(false)
	fn(false)
}

// boundaryRadii returns radii placed exactly at point-to-point
// distances, where the inclusive <= contract decides membership and a
// rounded float32 compare would flip results.
func boundaryRadii(rng *rand.Rand, cloud geom.Cloud, q geom.Point3, n int) []float64 {
	radii := []float64{0.35, 0.8}
	for i := 0; i < n; i++ {
		p := cloud[rng.Intn(len(cloud))]
		if d := math.Sqrt(q.Dist2(p)); d > 0 {
			radii = append(radii, d)
		}
	}
	return radii
}

// TestGridVectorizedMatchesScalar is the filter-and-refine acceptance
// property: the SIMD radius and count paths must return the same ids
// and counts as the scalar grid, including radii sitting exactly on
// point distances.
func TestGridVectorizedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{9, 120, 600} {
		cloud := randomCloud(rng, n)
		queries := queryPoints(rng, cloud, 8)

		type answer struct {
			ids    [][]int
			counts []int
		}
		var got [2]answer
		withVectorized(t, func(vec bool) {
			idx := 0
			if !vec {
				idx = 1
			}
			g := newGrid(cloud, 0.4) // rebuild so the vec flag is re-latched
			for qi, q := range queries {
				qrng := rand.New(rand.NewSource(int64(n*100 + qi)))
				for _, r := range boundaryRadii(qrng, cloud, q, 4) {
					// Radius order is unspecified (vectorized builds bin
					// coarser, which permutes CSR order); compare as sets.
					ids := append([]int(nil), g.RadiusInto(nil, q, r)...)
					sort.Ints(ids)
					got[idx].ids = append(got[idx].ids, ids)
					got[idx].counts = append(got[idx].counts, g.RadiusCount(q, r))
				}
			}
		})

		if len(got[0].ids) != len(got[1].ids) {
			t.Fatalf("n=%d: query count mismatch", n)
		}
		for i := range got[0].ids {
			if !equalInts(got[0].ids[i], got[1].ids[i]) {
				t.Fatalf("n=%d query %d: vectorized radius ids %v != scalar %v",
					n, i, got[0].ids[i], got[1].ids[i])
			}
			if got[0].counts[i] != got[1].counts[i] {
				t.Fatalf("n=%d query %d: vectorized count %d != scalar %d",
					n, i, got[0].counts[i], got[1].counts[i])
			}
		}
	}
}

// float32Cloud rounds every coordinate through float32, so the grid's
// float32 mirror holds the source coordinates exactly and every
// point-to-point distance sits where a prefilter compare could flip.
func float32Cloud(c geom.Cloud) geom.Cloud {
	out := make(geom.Cloud, len(c))
	for i, p := range c {
		out[i] = geom.Point3{X: float64(float32(p.X)), Y: float64(float32(p.Y)), Z: float64(float32(p.Z))}
	}
	return out
}

// TestGridFloat32CloudVectorMatchesScalar runs the vector and the scalar
// scan over float32-representable clouds and holds both to brute force:
// radius sets and counts must be exact in either mode, so the two modes
// are identical to each other.
func TestGridFloat32CloudVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{7, 200, 500} {
		cloud := float32Cloud(randomCloud(rng, n))
		queries := queryPoints(rng, cloud, 10)
		radii := make([][]float64, len(queries))
		for i, q := range queries {
			radii[i] = boundaryRadii(rng, cloud, q, 3)
		}
		withVectorized(t, func(vec bool) {
			g := newGrid(cloud, 0.3) // rebuild so the vec flag is re-latched
			if g.Len() != n {
				t.Fatalf("n=%d vec=%v: Len = %d", n, vec, g.Len())
			}
			for i, q := range queries {
				for _, r := range radii[i] {
					ids := sortedCopy(g.RadiusInto(nil, q, r))
					if want := bruteRadius(cloud, q, r); !equalInts(ids, want) {
						t.Fatalf("n=%d vec=%v r=%g: radius %v != brute %v", n, vec, r, ids, want)
					}
					if c := g.RadiusCount(q, r); c != len(ids) {
						t.Fatalf("n=%d vec=%v r=%g: RadiusCount %d != %d", n, vec, r, c, len(ids))
					}
				}
			}
		})
	}
}

// TestGridVecLargeCoordsFallback: coordinates beyond the float32-safe
// band must force the scalar path (vec latched off at build) and still
// answer correctly.
func TestGridVecLargeCoordsFallback(t *testing.T) {
	prev := kernels.SetVectorized(true)
	defer kernels.SetVectorized(prev)
	const far = 2e17
	cloud := geom.Cloud{
		{X: far, Y: 0, Z: 0},
		{X: far + 1, Y: 0, Z: 0},
		{X: far, Y: 3, Z: 0},
		{X: far + 0.5, Y: 0.5, Z: 0.5},
	}
	g := newGrid(cloud, 1)
	if g.vec {
		t.Fatal("grid stayed vectorized beyond the float32-safe coordinate band")
	}
	q := geom.Point3{X: far, Y: 0, Z: 0}
	want := bruteRadius(cloud, q, 1.2)
	if got := sortedCopy(g.RadiusInto(nil, q, 1.2)); !equalInts(got, want) {
		t.Fatalf("fallback radius %v != brute %v", got, want)
	}
	if c := g.RadiusCount(q, 1.2); c != len(want) {
		t.Fatalf("fallback RadiusCount %d != %d", c, len(want))
	}
}
