package projection

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
	"hawccc/internal/upsample"
)

// bruteKNN returns the indices of q's min(k, n) nearest points in
// cloud by brute force: every point ranked by its squared distance from
// q, ties by the lower index.
func bruteKNN(cloud geom.Cloud, q geom.Point3, k int) []int {
	idx := make([]int, len(cloud))
	d2 := make([]float64, len(cloud))
	for i, p := range cloud {
		idx[i], d2[i] = i, q.Dist2(p)
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case d2[a] < d2[b]:
			return -1
		case d2[a] > d2[b]:
			return 1
		}
		return a - b
	})
	return idx[:min(k, len(idx))]
}

// refHeightVariation is σz by its definition: the population standard
// deviation of the heights of each point's k nearest, found by brute
// force and summed in ascending (Dist2, Index) order. It is the
// reference the KNNAll path must reproduce bit for bit.
func refHeightVariation(cloud geom.Cloud, k int) []float64 {
	out := make([]float64, len(cloud))
	for i, p := range cloud {
		nn := bruteKNN(cloud, p, k)
		var mean float64
		for _, j := range nn {
			mean += cloud[j].Z
		}
		mean /= float64(len(nn))
		var v float64
		for _, j := range nn {
			d := cloud[j].Z - mean
			v += d * d
		}
		out[i] = math.Sqrt(v / float64(len(nn)))
	}
	return out
}

// viewportCloud approximates one classifier input: a person-shaped blob
// in the ±ViewportWindow frame, with duplicated points mixed in so
// distance ties exercise the cross-engine ordering contract, and padding
// noise clamped to the window the way Viewport clamps it, so points lie
// exactly on the x = ±ViewportWindow and y = ±ViewportWindow sheets and
// on their corner lines, where most of the σz neighbor search happens.
func viewportCloud(rng *rand.Rand, n int) geom.Cloud {
	clamp := func(v float64) float64 {
		return math.Max(-ViewportWindow, math.Min(ViewportWindow, v))
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

// generatedInputs returns n classifier inputs built the way HAWC builds
// them: dataset-generated clusters (humans and objects), padded to 225
// points from a pool of the objects' captures, framed by Viewport and put
// in canonical order. Most of their points are padding clamped onto the
// viewport's border sheets and corner lines — the mix σz meets on a pole.
func generatedInputs(n int) []geom.Cloud {
	samples := dataset.NewGenerator(11).Classification((n + 1) / 2)
	var objects []geom.Cloud
	for _, s := range samples {
		if !s.Human {
			objects = append(objects, s.Cloud)
		}
	}
	pool := upsample.NewPool(objects)
	rng := rand.New(rand.NewSource(11))
	clouds := make([]geom.Cloud, n)
	for i, s := range samples[:n] {
		up := upsample.FromPool(nil, rng, s.Cloud, pool, 225)
		clouds[i] = canonical(Viewport(nil, up, s.Cloud.Centroid(), ViewportWindow))
	}
	return clouds
}

// TestHeightVariationMatchesKDTree pins that σz through spatial.KNNAll
// equals σz by brute force, bit for bit: the neighbor sets, their
// iteration order, and therefore every float operation are identical. It covers synthetic viewports on either side of KNNAll's
// small-cloud crossover and generated classifier inputs, with the
// vector kernels on and off.
func TestHeightVariationMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var clouds []geom.Cloud
	for _, n := range []int{16, 256, 1024} {
		clouds = append(clouds, viewportCloud(rng, n))
	}
	clouds = append(clouds, generatedInputs(24)...)
	wants := make([][]float64, len(clouds))
	for c, cloud := range clouds {
		wants[c] = refHeightVariation(cloud, KNeighbors)
	}
	for _, vec := range []bool{true, false} {
		prev := kernels.SetVectorized(vec)
		for c, cloud := range clouds {
			want := wants[c]
			got := heightVariation(make([]float64, len(cloud)), cloud, KNeighbors)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("vectorized=%v cloud %d (n=%d) point %d: σz %v != brute-force σz %v", vec, c, len(cloud), i, got[i], want[i])
				}
			}
		}
		kernels.SetVectorized(prev)
	}
}

// TestDADensityMatchesKDTree pins the same for DA's density channel —
// each point's count of points within DensityRadius, itself excluded —
// on a synthetic viewport and on generated classifier inputs, whose
// corner lines, border sheets and duplicates put many points exactly at
// the same distances.
func TestDADensityMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	clouds := append([]geom.Cloud{viewportCloud(rng, 256)}, generatedInputs(24)...)
	for ci, cloud := range clouds {
		c := canonical(cloud)
		im := Project(DA{}, cloud)
		r2 := DensityRadius * DensityRadius
		for i, p := range c {
			n := -1
			for _, q := range c {
				if p.Dist2(q) <= r2 {
					n++
				}
			}
			want := float32(float64(n) / float64(KNeighbors))
			if got := im.Data[i*3+2]; got != want {
				t.Fatalf("cloud %d point %d: grid density %v != brute-force density %v", ci, i, got, want)
			}
		}
	}
}
