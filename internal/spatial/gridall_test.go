package spatial

import (
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

// viewportShaped mimics one classifier input: a person-sized blob with
// duplicated points, plus padding noise clamped to a ±2 m window, so
// many points sit exactly on the x = ±2 and y = ±2 sheets and on their
// corner lines — where the per-cell blocks of KNNAll are densest.
func viewportShaped(rng *rand.Rand, n int) geom.Cloud {
	clamp := func(v float64) float64 {
		if v > 2 {
			return 2
		}
		if v < -2 {
			return -2
		}
		return v
	}
	cloud := make(geom.Cloud, 0, n)
	for len(cloud) < n {
		switch {
		case len(cloud) > 0 && rng.Intn(6) == 0:
			cloud = append(cloud, cloud[rng.Intn(len(cloud))])
		case rng.Intn(3) == 0:
			cloud = append(cloud, geom.Point3{
				X: clamp(rng.NormFloat64() * 3),
				Y: clamp(rng.NormFloat64() * 3),
				Z: rng.Float64() * 2,
			})
		default:
			cloud = append(cloud, geom.Point3{
				X: rng.NormFloat64() * 0.25,
				Y: rng.NormFloat64() * 0.25,
				Z: 3 + rng.Float64()*1.7,
			})
		}
	}
	return cloud
}

// checkKNNAll holds g.knnAll to KNNInto for every point and returns the
// fallback count.
func checkKNNAll(t *testing.T, name string, g *Grid, cloud geom.Cloud, k int) int {
	t.Helper()
	got := make([][]Neighbor, len(cloud))
	calls := 0
	fallbacks := g.knnAll(k, func(i int, nn []Neighbor) {
		calls++
		if got[i] != nil {
			t.Fatalf("%s k=%d: point %d reported twice", name, k, i)
		}
		got[i] = append([]Neighbor{}, nn...)
	})
	if calls != len(cloud) {
		t.Fatalf("%s k=%d: %d calls for %d points", name, k, calls, len(cloud))
	}
	for i, p := range cloud {
		want := g.KNNInto(nil, p, k)
		if len(got[i]) != len(want) {
			t.Fatalf("%s k=%d point %d: %d neighbors, KNNInto has %d", name, k, i, len(got[i]), len(want))
		}
		for j := range want {
			// Neighbor equality compares Index and the Dist2 bits.
			if got[i][j] != want[j] {
				t.Fatalf("%s k=%d point %d: KNNAll %v != KNNInto %v", name, k, i, got[i], want)
			}
		}
	}
	return fallbacks
}

// TestKNNAllMatchesKNNInto pins KNNAll to KNNInto element for element —
// indices and distance bits — on the cloud shapes the grid meets, with
// the vector kernels on and off (they change the cell edge, so the
// blocks), and checks that the sparse case exercises the fallback.
func TestKNNAllMatchesKNNInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	line := make(geom.Cloud, 60)
	flat := make(geom.Cloud, 150)
	for i := range line {
		line[i] = geom.Point3{X: rng.Float64() * 4, Y: 1, Z: 2}
	}
	for i := range flat {
		flat[i] = geom.Point3{X: rng.Float64() * 3, Y: rng.Float64() * 3, Z: 0.5}
	}
	dups := make(geom.Cloud, 40)
	for i := range dups {
		dups[i] = geom.Point3{X: float64(i % 3), Y: 1, Z: float64(i % 2)}
	}
	clouds := []struct {
		name  string
		cloud geom.Cloud
		cell  float64
	}{
		{"random9", randomCloud(rng, 9), 0},
		{"random120", randomCloud(rng, 120), 0},
		{"random300", randomCloud(rng, 300), 0},
		{"random400-cell0.4", randomCloud(rng, 400), 0.4},
		{"coincident", geom.Cloud{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}}, 0},
		{"duplicates", dups, 0},
		{"collinear", line, 0},
		{"flat", flat, 0},
		{"one", geom.Cloud{{X: 0.5, Y: -2, Z: 3}}, 0},
		{"viewport225", viewportShaped(rng, 225), 0},
		{"viewport400", viewportShaped(rng, 400), 0},
	}
	withVectorized(t, func(vec bool) {
		for _, c := range clouds {
			g := NewGrid(c.cloud, c.cell)
			n := len(c.cloud)
			for _, k := range []int{1, 8, n, n + 3} {
				checkKNNAll(t, c.name, g, c.cloud, k)
			}
		}

		// A sparse cloud under a fine lattice: most blocks hold fewer
		// than k points, so KNNAll must hand those points to KNNInto.
		sparse := make(geom.Cloud, 80)
		for i := range sparse {
			sparse[i] = geom.Point3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 5}
		}
		g := NewGrid(sparse, 0.5)
		fallbacks := 0
		for _, k := range []int{1, 8, len(sparse), len(sparse) + 3} {
			fallbacks += checkKNNAll(t, "sparse", g, sparse, k)
		}
		if fallbacks == 0 {
			t.Fatalf("vec=%v: the sparse cloud never fell back to KNNInto", vec)
		}
	})
}
