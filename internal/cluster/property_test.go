package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// sceneSpec names one generated point layout for the property tests
// against the brute-force oracle.
type sceneSpec struct {
	name  string
	cloud geom.Cloud
}

// propertyScenes builds the layouts the graph-vs-brute-force
// equivalence property must hold on: seeded random crowds, all-noise
// scatter, one dense cluster, and points placed exactly at ε boundaries
// where the inclusive-radius contract decides membership.
func propertyScenes(rng *rand.Rand) []sceneSpec {
	scenes := []sceneSpec{}

	// Seeded random scenes: blobs of varying tightness plus scatter.
	for s := 0; s < 4; s++ {
		n := 80 + rng.Intn(400)
		cloud := make(geom.Cloud, 0, n)
		blobs := 1 + rng.Intn(6)
		for b := 0; b < blobs; b++ {
			cx, cy := rng.Float64()*8-4, rng.Float64()*8-4
			m := 10 + rng.Intn(40)
			for i := 0; i < m; i++ {
				cloud = append(cloud, geom.Point3{
					X: cx + rng.NormFloat64()*0.12,
					Y: cy + rng.NormFloat64()*0.12,
					Z: 0.9 + rng.NormFloat64()*0.3,
				})
			}
		}
		for len(cloud) < n {
			cloud = append(cloud, geom.Point3{
				X: rng.Float64()*10 - 5,
				Y: rng.Float64()*10 - 5,
				Z: rng.Float64() * 2,
			})
		}
		scenes = append(scenes, sceneSpec{name: "random", cloud: cloud})
	}

	// All noise: uniform scatter too sparse for any core point.
	noise := make(geom.Cloud, 60)
	for i := range noise {
		noise[i] = geom.Point3{
			X: float64(i%8) * 5,
			Y: float64(i/8) * 5,
			Z: float64(i%3) * 5,
		}
	}
	scenes = append(scenes, sceneSpec{name: "all-noise", cloud: noise})

	// Single dense cluster.
	single := make(geom.Cloud, 120)
	for i := range single {
		single[i] = geom.Point3{
			X: rng.NormFloat64() * 0.1,
			Y: rng.NormFloat64() * 0.1,
			Z: 1 + rng.NormFloat64()*0.1,
		}
	}
	scenes = append(scenes, sceneSpec{name: "single-cluster", cloud: single})

	// Boundary of ε: chains of points spaced at exactly the query radius
	// (0.3 below), where the inclusive <= boundary decides connectivity,
	// plus duplicate points forcing distance ties.
	var boundary geom.Cloud
	for i := 0; i < 12; i++ {
		boundary = append(boundary, geom.Point3{X: float64(i) * 0.3})
	}
	for i := 0; i < 12; i++ {
		boundary = append(boundary, geom.Point3{X: float64(i) * 0.3, Y: 2.5})
		if i%3 == 0 {
			boundary = append(boundary, geom.Point3{X: float64(i) * 0.3, Y: 2.5})
		}
	}
	scenes = append(scenes, sceneSpec{name: "epsilon-boundary", cloud: boundary})

	return scenes
}

func equalLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkResult verifies internal consistency of a Result: Sizes matches
// Labels, NumClusters covers every label.
func checkResult(t *testing.T, scene string, r Result) {
	t.Helper()
	counts := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l == Noise {
			continue
		}
		if l < 0 || l >= r.NumClusters {
			t.Fatalf("%s: label %d out of range [0,%d)", scene, l, r.NumClusters)
		}
		counts[l]++
	}
	if r.Sizes == nil {
		return
	}
	if len(r.Sizes) != r.NumClusters {
		t.Fatalf("%s: len(Sizes)=%d, NumClusters=%d", scene, len(r.Sizes), r.NumClusters)
	}
	for c, want := range counts {
		if r.Sizes[c] != want {
			t.Fatalf("%s: Sizes[%d]=%d, counted %d", scene, c, r.Sizes[c], want)
		}
	}
}

// TestKDistanceCurveMatchesKDTree pins the adaptive-ε curve to the
// brute-force scan bit for bit: on every scene and for several k, the
// shared curve equals the sorted square roots of each point's (k+1)-th
// smallest squared distance over the whole cloud (the point itself is
// its own nearest).
func TestKDistanceCurveMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	var curve []float64
	for _, scene := range propertyScenes(rng) {
		d2 := make([]float64, len(scene.cloud))
		for _, k := range []int{1, DefaultAdaptiveConfig().K, 9} {
			want := make([]float64, len(scene.cloud))
			for i, p := range scene.cloud {
				for j, q := range scene.cloud {
					d2[j] = p.Dist2(q)
				}
				sort.Float64s(d2)
				want[i] = math.Sqrt(d2[min(k, len(d2)-1)])
			}
			sort.Float64s(want)
			curve = KDistanceCurve(curve, scene.cloud, k)
			if len(curve) != len(want) {
				t.Fatalf("%s k=%d: curve has %d values for %d points", scene.name, k, len(curve), len(want))
			}
			for i := range want {
				if math.Float64bits(curve[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s k=%d: curve[%d] = %v, brute force %v", scene.name, k, i, curve[i], want[i])
				}
			}
		}
	}
}

// TestDBSCANGridMatchesKDTree is the cross-engine property test: on
// every scene DBSCAN over the neighbour graph and the brute-force
// expansion produce identical labels — not merely the same partition up
// to renumbering, because both number clusters in ascending seed order
// over identical ε-regions.
func TestDBSCANGridMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var s, o Scratch
	for _, scene := range propertyScenes(rng) {
		for _, eps := range []float64{0.15, 0.3, 0.45} {
			for _, minPts := range []int{3, 5} {
				g := s.DBSCAN(scene.cloud, eps, minPts)
				checkResult(t, scene.name, g)
				b := o.dbscan(scene.cloud, eps, minPts)
				checkResult(t, scene.name, b)
				if g.NumClusters != b.NumClusters || !equalLabels(g.Labels, b.Labels) {
					t.Fatalf("%s eps=%g minPts=%d: graph labels differ from brute force\ngraph %v (%d clusters)\nbrute %v (%d clusters)",
						scene.name, eps, minPts, g.Labels, g.NumClusters, b.Labels, b.NumClusters)
				}
			}
		}
	}
}

// TestAdaptiveGridMatchesKDTree extends the property to the full
// adaptive path: elbow ε and structure-gap refinement against the
// brute-force expansion, then a fresh expansion at the final ε — so it
// also pins that the graph path's coarse-result reuse returns what a
// second pass would.
func TestAdaptiveGridMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	cfg := DefaultAdaptiveConfig()
	var s, o Scratch
	for _, scene := range propertyScenes(rng) {
		g := s.Adaptive(scene.cloud, cfg)
		checkResult(t, scene.name, g)
		eps := o.optimalEpsilon(scene.cloud, cfg)
		if g.Epsilon != eps {
			t.Fatalf("%s: graph eps %g != brute-force eps %g", scene.name, g.Epsilon, eps)
		}
		b := o.dbscan(scene.cloud, eps, cfg.MinPts)
		checkResult(t, scene.name, b)
		if g.NumClusters != b.NumClusters || !equalLabels(g.Labels, b.Labels) {
			t.Fatalf("%s: adaptive graph labels differ from brute force\ngraph %v (%d)\nbrute %v (%d)",
				scene.name, g.Labels, g.NumClusters, b.Labels, b.NumClusters)
		}
	}
}

// TestScratchMatchesPackageLevel pins that a reused Scratch produces the
// same results as the package-level one-shot functions across a sequence
// of different clouds — the steady-state streaming pattern.
func TestScratchMatchesPackageLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cfg := DefaultAdaptiveConfig()
	var s Scratch
	for _, scene := range propertyScenes(rng) {
		want := Adaptive(scene.cloud, cfg)
		got := s.Adaptive(scene.cloud, cfg)
		if want.Epsilon != got.Epsilon || want.NumClusters != got.NumClusters ||
			!equalLabels(want.Labels, got.Labels) {
			t.Fatalf("%s: scratch Adaptive diverges from package-level", scene.name)
		}
		wantEps := OptimalEpsilon(scene.cloud, cfg)
		if gotEps := s.OptimalEpsilon(scene.cloud, cfg); gotEps != wantEps {
			t.Fatalf("%s: scratch OptimalEpsilon %g != %g", scene.name, gotEps, wantEps)
		}
	}
}

// TestAdaptiveCoarseReuse forces the fallback-ε outcome (tiny band) and
// checks the reused coarse result matches a fresh DBSCAN at that ε.
func TestAdaptiveCoarseReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	// Two dense blobs: the elbow lands inside the clamped band, and with
	// the default config most crowd scenes resolve to the fallback via
	// clamping or the structure cap. Whether or not reuse triggers, the
	// result must equal the one-shot path at the same ε.
	var cloud geom.Cloud
	for b := 0; b < 2; b++ {
		cx := float64(b) * 1.5
		for i := 0; i < 60; i++ {
			cloud = append(cloud, geom.Point3{
				X: cx + rng.NormFloat64()*0.08,
				Y: rng.NormFloat64() * 0.08,
				Z: 1 + rng.NormFloat64()*0.2,
			})
		}
	}
	cfg := DefaultAdaptiveConfig()
	var s Scratch
	got := s.Adaptive(cloud, cfg)
	want := DBSCAN(cloud, got.Epsilon, cfg.MinPts)
	if got.NumClusters != want.NumClusters || !equalLabels(got.Labels, want.Labels) {
		t.Fatalf("adaptive result at eps=%g differs from direct DBSCAN", got.Epsilon)
	}
	checkResult(t, "coarse-reuse", got)
}

// TestAdaptiveSteadyStateAllocs pins the zero-alloc guarantee of the
// geometry stage: after warm-up, a full Adaptive pass — neighbour graph,
// k-distance band, coarse pass, final labels — performs no heap
// allocation, on the property scenes and on ledger-like crowd and
// walkway frames, with the vector kernels on and off. It holds under
// the race detector too: the stage draws from no sync.Pool.
func TestAdaptiveSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	var scenes []sceneSpec
	for _, c := range ringFrames(17, 16, 32, 6) {
		scenes = append(scenes, sceneSpec{name: "crowd", cloud: c})
	}
	for _, c := range ringFrames(6, 1, 6, 2) {
		scenes = append(scenes, sceneSpec{name: "walkway", cloud: c})
	}
	scenes = append(scenes, propertyScenes(rng)...)
	cfg := DefaultAdaptiveConfig()
	for _, vec := range []bool{true, false} {
		prev := kernels.SetVectorized(vec)
		var s Scratch
		for _, scene := range scenes {
			s.Adaptive(scene.cloud, cfg) // warm the buffers
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, scene := range scenes {
				s.Adaptive(scene.cloud, cfg)
			}
		})
		kernels.SetVectorized(prev)
		if allocs != 0 {
			t.Fatalf("vectorized=%v: steady-state Adaptive allocates: %.1f allocs/run", vec, allocs)
		}
	}
}
