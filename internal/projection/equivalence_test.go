package projection

import (
	"math"
	"math/rand"
	"testing"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
	"hawccc/internal/kdtree"
	"hawccc/internal/upsample"
)

// refHeightVariation is the pre-grid σz implementation: a fresh k-d
// tree per cluster. Kept as the reference the pooled-grid path must
// reproduce bit-for-bit.
func refHeightVariation(cloud geom.Cloud, k int) []float64 {
	tree := kdtree.New(cloud)
	out := make([]float64, len(cloud))
	for i, p := range cloud {
		nn := tree.KNN(p, k)
		var mean float64
		for _, n := range nn {
			mean += cloud[n.Index].Z
		}
		mean /= float64(len(nn))
		var v float64
		for _, n := range nn {
			d := cloud[n.Index].Z - mean
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
// equals σz over a fresh k-d tree per cluster, bit for bit: the neighbor
// sets, their iteration order, and therefore every float operation are
// identical. It covers synthetic viewports on either side of KNNAll's
// small-cloud crossover and generated classifier inputs, with the
// vector kernels on and off.
func TestHeightVariationMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var clouds []geom.Cloud
	for _, n := range []int{16, 256, 1024} {
		clouds = append(clouds, viewportCloud(rng, n))
	}
	clouds = append(clouds, generatedInputs(24)...)
	for _, vec := range []bool{true, false} {
		prev := kernels.SetVectorized(vec)
		for c, cloud := range clouds {
			want := refHeightVariation(cloud, KNeighbors)
			got := heightVariation(make([]float64, len(cloud)), cloud, KNeighbors)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("vectorized=%v cloud %d (n=%d) point %d: σz %v != kdtree σz %v", vec, c, len(cloud), i, got[i], want[i])
				}
			}
		}
		kernels.SetVectorized(prev)
	}
}

// TestDADensityMatchesKDTree pins the same for DA's density channel, on
// a synthetic viewport and on generated classifier inputs, whose corner
// lines, border sheets and duplicates put many points exactly at the
// same distances.
func TestDADensityMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	clouds := append([]geom.Cloud{viewportCloud(rng, 256)}, generatedInputs(24)...)
	for ci, cloud := range clouds {
		c := canonical(cloud)
		tree := kdtree.New(c)
		im := Project(DA{}, cloud)
		for i, p := range c {
			want := float32(float64(tree.RadiusCount(p, DensityRadius)-1) / float64(KNeighbors))
			if got := im.Data[i*3+2]; got != want {
				t.Fatalf("cloud %d point %d: grid density %v != kdtree density %v", ci, i, got, want)
			}
		}
	}
}
