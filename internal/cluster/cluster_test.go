package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hawccc/internal/geom"
)

// blob generates n points normally distributed around center.
func blob(rng *rand.Rand, center geom.Point3, std float64, n int) geom.Cloud {
	c := make(geom.Cloud, n)
	for i := range c {
		c[i] = geom.P(
			center.X+rng.NormFloat64()*std,
			center.Y+rng.NormFloat64()*std,
			center.Z+rng.NormFloat64()*std,
		)
	}
	return c
}

// twoBlobScene builds two well-separated dense blobs plus sparse noise.
func twoBlobScene(rng *rand.Rand) (cloud geom.Cloud, blobA, blobB int) {
	a := blob(rng, geom.P(0, 0, 0), 0.05, 60)
	b := blob(rng, geom.P(5, 0, 0), 0.05, 60)
	cloud = append(cloud, a...)
	cloud = append(cloud, b...)
	for i := 0; i < 5; i++ { // far-flung noise points
		cloud = append(cloud, geom.P(rng.Float64()*100+20, 50, 10))
	}
	return cloud, len(a), len(b)
}

func TestDBSCANTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cloud, _, _ := twoBlobScene(rng)
	res := DBSCAN(cloud, 0.3, 5)
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	if res.NoiseCount() != 5 {
		t.Errorf("NoiseCount = %d, want 5", res.NoiseCount())
	}
	// All points of one blob must carry the same label.
	first := res.Labels[0]
	for i := 1; i < 60; i++ {
		if res.Labels[i] != first {
			t.Fatalf("blob A split: point %d has label %d, want %d", i, res.Labels[i], first)
		}
	}
}

func TestDBSCANEdgeCases(t *testing.T) {
	if res := DBSCAN(nil, 0.5, 5); res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Error("empty cloud should yield empty result")
	}
	res := DBSCAN(geom.Cloud{geom.P(0, 0, 0)}, 0.5, 2)
	if res.NumClusters != 0 || res.Labels[0] != Noise {
		t.Error("single point below minPts should be noise")
	}
	res = DBSCAN(geom.Cloud{geom.P(0, 0, 0)}, 0.5, 1)
	if res.NumClusters != 1 || res.Labels[0] != 0 {
		t.Error("single point with minPts=1 should form a cluster")
	}
	if res := DBSCAN(geom.Cloud{geom.P(0, 0, 0)}, 0, 1); res.NumClusters != 0 {
		t.Error("eps=0 should cluster nothing")
	}
	if res := DBSCAN(geom.Cloud{geom.P(0, 0, 0)}, 1, 0); res.NumClusters != 0 {
		t.Error("minPts=0 should cluster nothing")
	}
}

func TestDBSCANBorderPoints(t *testing.T) {
	// A line of points spaced 0.9 apart with eps=1, minPts=3: ends are
	// border points of the single chain cluster.
	var cloud geom.Cloud
	for i := 0; i < 10; i++ {
		cloud = append(cloud, geom.P(float64(i)*0.9, 0, 0))
	}
	res := DBSCAN(cloud, 1.0, 3)
	if res.NumClusters != 1 {
		t.Fatalf("chain should form one cluster, got %d", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Errorf("point %d label = %d, want 0", i, l)
		}
	}
}

func TestDBSCANLabelsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		cloud := blob(rng, geom.P(0, 0, 0), 1.0, n)
		res := DBSCAN(cloud, 0.2+rng.Float64(), 1+rng.Intn(6))
		// Every label must be Noise or in [0, NumClusters); every cluster
		// id below NumClusters must be used.
		used := make(map[int]bool)
		for _, l := range res.Labels {
			if l == Noise {
				continue
			}
			if l < 0 || l >= res.NumClusters {
				return false
			}
			used[l] = true
		}
		return len(used) == res.NumClusters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClustersMaterialization(t *testing.T) {
	cloud := geom.Cloud{geom.P(0, 0, 0), geom.P(0.1, 0, 0), geom.P(9, 9, 9)}
	res := DBSCAN(cloud, 0.5, 2)
	clusters := res.ClustersInto(cloud, nil)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	if len(clusters[0]) != 2 {
		t.Errorf("cluster size = %d, want 2", len(clusters[0]))
	}
}

func TestClustersPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Result{Labels: []int{0}}.ClustersInto(geom.Cloud{}, nil)
}

func TestOptimalEpsilonSeparatesScales(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Dense blobs: intra-cluster 4-NN distances ≈ 0.02-0.08; separation 5 m.
	cloud, _, _ := twoBlobScene(rng)
	cfg := DefaultAdaptiveConfig()
	eps := OptimalEpsilon(cloud, cfg)
	if eps <= 0 || eps > 1.0 {
		t.Errorf("ε = %v, want within (0, 1] for dense blobs", eps)
	}
	// Adaptive clustering with that ε must find the two blobs.
	res := Adaptive(cloud, cfg)
	if res.NumClusters != 2 {
		t.Errorf("Adaptive found %d clusters, want 2 (ε=%v)", res.NumClusters, res.Epsilon)
	}
}

func TestOptimalEpsilonFallbacks(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	if eps := OptimalEpsilon(nil, cfg); eps != cfg.FallbackEps {
		t.Errorf("empty cloud ε = %v, want fallback", eps)
	}
	tiny := geom.Cloud{geom.P(0, 0, 0), geom.P(1, 1, 1)}
	if eps := OptimalEpsilon(tiny, cfg); eps != cfg.FallbackEps {
		t.Errorf("tiny cloud ε = %v, want fallback", eps)
	}
	bad := cfg
	bad.K = 0
	if eps := OptimalEpsilon(blob(rand.New(rand.NewSource(1)), geom.Point3{}, 1, 50), bad); eps != cfg.FallbackEps {
		t.Errorf("K=0 ε = %v, want fallback", eps)
	}
}

func TestOptimalEpsilonClamped(t *testing.T) {
	// Uniformly scattered sparse points produce huge k-NN distances; MaxEps
	// must clamp the elbow value.
	rng := rand.New(rand.NewSource(9))
	var cloud geom.Cloud
	for i := 0; i < 30; i++ {
		cloud = append(cloud, geom.P(rng.Float64()*500, rng.Float64()*500, rng.Float64()*500))
	}
	cfg := DefaultAdaptiveConfig()
	eps := OptimalEpsilon(cloud, cfg)
	if eps > cfg.MaxEps {
		t.Errorf("ε = %v exceeds MaxEps %v", eps, cfg.MaxEps)
	}
}

func TestHierarchicalConnectedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cloud, _, _ := twoBlobScene(rng)
	res := Hierarchical(cloud, 0.5)
	// Two blobs plus 5 isolated noise points = 7 components (hierarchical
	// has no noise concept: singletons are their own clusters — this is
	// exactly why it over-counts in Table IV).
	if res.NumClusters != 7 {
		t.Errorf("NumClusters = %d, want 7", res.NumClusters)
	}
	if res.NoiseCount() != 0 {
		t.Error("single-linkage cut should label everything")
	}
}

func TestHierarchicalDegenerate(t *testing.T) {
	if res := Hierarchical(nil, 1); res.NumClusters != 0 {
		t.Error("empty cloud should have no clusters")
	}
	if res := Hierarchical(geom.Cloud{geom.P(0, 0, 0)}, 0); res.Labels[0] != Noise {
		t.Error("cut=0 should label noise")
	}
}

func TestFastFloor(t *testing.T) {
	tests := []struct {
		in   float64
		want int64
	}{
		{1.5, 1}, {-1.5, -2}, {0, 0}, {-0.0001, -1}, {2, 2}, {-3, -3},
	}
	for _, tt := range tests {
		if got := fastFloor(tt.in); got != tt.want {
			t.Errorf("fastFloor(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestClustersIntoMatchesLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cloud := append(blob(rng, geom.P(15, 0, -1), 0.1, 60), blob(rng, geom.P(25, 2, -1), 0.1, 60)...)
	cloud = append(cloud, geom.P(40, -2, 5)) // an isolated noise point
	res := DBSCAN(cloud, 0.5, 5)
	if res.NumClusters < 2 {
		t.Fatalf("setup: expected ≥2 clusters, got %d", res.NumClusters)
	}

	// The reference: each labeled point appended to its cluster, in
	// cloud order.
	want := make([]geom.Cloud, res.NumClusters)
	for i, lbl := range res.Labels {
		if lbl != Noise {
			want[lbl] = append(want[lbl], cloud[i])
		}
	}
	// Undersized dst with stale contents: must grow and be overwritten.
	dst := make([]geom.Cloud, 1, 1)
	dst[0] = geom.Cloud{geom.P(9, 9, 9)}
	got := res.ClustersInto(cloud, dst)
	if len(got) != len(want) {
		t.Fatalf("ClustersInto produced %d clusters, want %d", len(got), len(want))
	}
	for ci := range want {
		if len(got[ci]) != len(want[ci]) {
			t.Fatalf("cluster %d: %d vs %d points", ci, len(got[ci]), len(want[ci]))
		}
		for pi := range want[ci] {
			if got[ci][pi] != want[ci][pi] {
				t.Errorf("cluster %d point %d differs", ci, pi)
			}
		}
	}
	// Recycling the returned slice reproduces the same clusters and
	// reuses the grown backing arrays.
	backing := &got[0][0]
	again := res.ClustersInto(cloud, got)
	if len(again) != len(want) || &again[0][0] != backing {
		t.Error("recycled ClustersInto did not reuse the grown buffers")
	}

	// Degenerate inputs: an empty clustering yields no clusters.
	empty := DBSCAN(nil, 0.5, 5)
	if out := empty.ClustersInto(nil, nil); len(out) != 0 {
		t.Errorf("empty result produced %d clusters", len(out))
	}
}

func TestAdaptiveDegenerateClouds(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	// Empty cloud: no clusters, no panic, fallback ε.
	if eps := OptimalEpsilon(nil, cfg); eps != cfg.FallbackEps {
		t.Errorf("empty cloud ε = %v, want fallback %v", eps, cfg.FallbackEps)
	}
	if res := Adaptive(nil, cfg); res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("empty cloud clustered to %+v", res)
	}
	// Single point: below MinPts, labeled noise.
	one := geom.Cloud{geom.P(20, 0, -1)}
	if eps := OptimalEpsilon(one, cfg); eps != cfg.FallbackEps {
		t.Errorf("single-point ε = %v, want fallback %v", eps, cfg.FallbackEps)
	}
	res := Adaptive(one, cfg)
	if res.NumClusters != 0 || res.Labels[0] != Noise {
		t.Errorf("single point clustered to %+v", res)
	}
	// All-equidistant cloud (uniform grid): the flat k-NN curve must
	// yield a usable ε inside the physical band, not zero or infinity.
	var grid geom.Cloud
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			grid = append(grid, geom.P(15+0.3*float64(x), 0.3*float64(y), -1))
		}
	}
	eps := OptimalEpsilon(grid, cfg)
	if eps < cfg.MinEps || eps > cfg.MaxEps {
		t.Errorf("uniform-grid ε = %v outside [%v, %v]", eps, cfg.MinEps, cfg.MaxEps)
	}
	if res := Adaptive(grid, cfg); res.NumClusters == 0 {
		t.Error("uniform grid produced no cluster at the band-clamped ε")
	}
}

// TestAdaptiveNonFinite clusters 200-point clouds with one non-finite
// point — a NaN or infinite coordinate, which only a direct caller can
// pass (the pipeline's ROI crop drops such points). Adaptive must return
// in bounded time, without panicking, with a finite ε in the physical
// band and one label per point. Each case runs on its own goroutine
// under a deadline, so a hang fails the test instead of stalling it.
func TestAdaptiveNonFinite(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	bad := []struct {
		name string
		set  func(p *geom.Point3)
	}{
		{"nan-x", func(p *geom.Point3) { p.X = math.NaN() }},
		{"nan-z", func(p *geom.Point3) { p.Z = math.NaN() }},
		{"-inf-z", func(p *geom.Point3) { p.Z = math.Inf(-1) }},
		{"+inf-x", func(p *geom.Point3) { p.X = math.Inf(1) }},
	}
	for i, b := range bad {
		rng := rand.New(rand.NewSource(int64(106 + i)))
		cloud, _, _ := twoBlobScene(rng)
		cloud = append(cloud, blob(rng, geom.P(2, 3, 1), 0.1, 200-len(cloud))...)
		b.set(&cloud[rng.Intn(len(cloud))])

		type outcome struct {
			res   Result
			panic any
		}
		done := make(chan outcome, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- outcome{panic: p}
				}
			}()
			done <- outcome{res: Adaptive(cloud, cfg)}
		}()
		select {
		case o := <-done:
			if o.panic != nil {
				t.Fatalf("%s: Adaptive panicked: %v", b.name, o.panic)
			}
			if eps := o.res.Epsilon; math.IsNaN(eps) || eps < cfg.MinEps || eps > cfg.MaxEps {
				t.Fatalf("%s: ε = %v, want finite in [%v, %v]", b.name, eps, cfg.MinEps, cfg.MaxEps)
			}
			if len(o.res.Labels) != len(cloud) {
				t.Fatalf("%s: %d labels for %d points", b.name, len(o.res.Labels), len(cloud))
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s: Adaptive did not return within 15 s", b.name)
		}
	}
}
