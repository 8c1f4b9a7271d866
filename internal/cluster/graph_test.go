package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
	"hawccc/internal/ground"
)

// ringFrames returns n ground-ingested frames built like the ledger's
// pole rings (bench/pole.go): seed 11, people counts cycling from lo to
// hi, objects objects a frame.
func ringFrames(n, lo, hi, objects int) []geom.Cloud {
	g := dataset.NewGenerator(11)
	frames := make([]geom.Cloud, n)
	for i := range frames {
		k := lo + i%(hi-lo+1)
		frames[i] = ground.Ingest(g.CrowdFrames(1, k, k, objects)[0].Cloud, ground.DefaultROI())
	}
	return frames
}

// boundaryScenes are the layouts where the inclusive ≤ decides:
// lattices of pitch exactly ε along each axis and diagonal (so squared
// distances land on ε·ε itself, bit for bit), far from the origin as
// well as at it, and stacks of duplicate points.
func boundaryScenes() []sceneSpec {
	var scenes []sceneSpec
	for _, eps := range []float64{0.25, 0.3, 0.5} {
		for _, origin := range []geom.Point3{{}, {X: 17.3, Y: -4.1, Z: 0.7}} {
			var c geom.Cloud
			for i := range 6 {
				for j := range 4 {
					for k := range 2 {
						c = append(c, origin.Add(geom.Point3{X: float64(i) * eps, Y: float64(j) * eps, Z: float64(k) * eps}))
					}
				}
			}
			// A chain along a diagonal: consecutive points at eps in y = x.
			d := eps / 1.4142135623730951
			for i := range 8 {
				c = append(c, origin.Add(geom.Point3{X: 5 + float64(i)*d, Y: 5 + float64(i)*d}))
			}
			scenes = append(scenes, sceneSpec{name: fmt.Sprintf("pitch-%g@%v", eps, origin), cloud: c})
		}
	}
	var dup geom.Cloud
	for i := range 40 {
		p := geom.Point3{X: float64(i%5) * 0.1, Y: float64(i%3) * 0.3, Z: 1}
		dup = append(dup, p, p, p)
	}
	scenes = append(scenes, sceneSpec{name: "duplicates", cloud: dup})
	return scenes
}

// sameResult fails unless got and want agree on ε, every label, the
// cluster count and every size.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Epsilon != want.Epsilon || got.NumClusters != want.NumClusters ||
		!slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.Sizes, want.Sizes) {
		t.Fatalf("%s: graph ε %g, %d clusters, sizes %v\nlabels %v\noracle ε %g, %d clusters, sizes %v\nlabels %v",
			what, got.Epsilon, got.NumClusters, got.Sizes, got.Labels,
			want.Epsilon, want.NumClusters, want.Sizes, want.Labels)
	}
}

// TestGraphMatchesExpansion is the neighbour graph's equivalence
// property: on every scene — the property scenes, ledger-like crowd and
// walkway frames (among them frames whose ε exceeds the fallback, which
// the graph answers from its MaxEps radius), ε-pitch lattices and
// duplicate stacks — Adaptive's ε, labels, cluster count and sizes, and
// DBSCAN's at every fixed ε the repository runs (Table IV's 0.1 to 0.9
// among them), equal the breadth-first expansion's by brute force, with
// MinPts = K+1 and otherwise, with the vector kernels on and off.
func TestGraphMatchesExpansion(t *testing.T) {
	scenes := propertyScenes(rand.New(rand.NewSource(108)))
	scenes = append(scenes, boundaryScenes()...)
	for i, c := range ringFrames(17, 16, 32, 6) {
		scenes = append(scenes, sceneSpec{name: fmt.Sprintf("crowd-%d", i), cloud: c})
	}
	for i, c := range ringFrames(12, 1, 6, 2) {
		scenes = append(scenes, sceneSpec{name: fmt.Sprintf("walkway-%d", i), cloud: c})
	}
	cfgs := []AdaptiveConfig{DefaultAdaptiveConfig()}
	for _, kp := range [][2]int{{4, 3}, {4, 8}, {2, 5}, {6, 4}} {
		cfg := DefaultAdaptiveConfig()
		cfg.K, cfg.MinPts = kp[0], kp[1]
		cfgs = append(cfgs, cfg)
	}
	above := map[string]int{}
	for _, vec := range []bool{true, false} {
		prev := kernels.SetVectorized(vec)
		var s, e, o Scratch
		for _, scene := range scenes {
			for ci, cfg := range cfgs {
				got := s.Adaptive(scene.cloud, cfg)
				checkResult(t, scene.name, got)
				if vec && ci == 0 && got.Epsilon > cfg.FallbackEps {
					above[scene.name[:min(len(scene.name), 5)]]++
				}
				what := fmt.Sprintf("%s K=%d MinPts=%d vectorized=%v", scene.name, cfg.K, cfg.MinPts, vec)
				eps := o.optimalEpsilon(scene.cloud, cfg)
				if got := e.OptimalEpsilon(scene.cloud, cfg); got != eps {
					t.Fatalf("%s: OptimalEpsilon %g, oracle %g", what, got, eps)
				}
				sameResult(t, what, got, o.dbscan(scene.cloud, eps, cfg.MinPts))
			}
			for _, eps := range []float64{0.1, 0.15, 0.25, 0.3, 0.5, 0.7, 0.9} {
				for _, minPts := range []int{1, 3, 5} {
					what := fmt.Sprintf("%s DBSCAN ε=%g MinPts=%d vectorized=%v", scene.name, eps, minPts, vec)
					sameResult(t, what, s.DBSCAN(scene.cloud, eps, minPts), o.dbscan(scene.cloud, eps, minPts))
				}
			}
		}
		kernels.SetVectorized(prev)
	}
	if above["crowd"] == 0 || above["walkw"] == 0 {
		t.Fatalf("no crowd or walkway frame with ε above the fallback (%v): the graph's MaxEps radius went untested", above)
	}
}

// TestKBandThresholds holds kBand to its definition on rows whose
// distances sit at and one ulp either side of the band's edges, where
// the squared-distance thresholds decide without a square root: a
// slot's k-th smallest distance is in the band exactly when its square
// root is in [lo, hi).
func TestKBandThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	const lo, hi = 0.2, 0.5
	var edges []float64
	for _, e := range []float64{lo * lo, hi * hi, sqrtBelow(lo), sqrtBelow(hi)} {
		edges = append(edges, e, math.Nextafter(e, 0), math.Nextafter(e, 1))
	}
	for _, e := range []float64{lo, hi} {
		if s := sqrtBelow(e); !(math.Sqrt(s) < e) || math.Sqrt(math.Nextafter(s, 1)) < e {
			t.Fatalf("sqrtBelow(%v) = %v is not the last square below it", e, s)
		}
	}
	for it := range 200 {
		k := 1 + rng.Intn(5)
		var g graph
		var want []float64
		for s := range 30 {
			row := make([]float64, rng.Intn(2*k+1))
			for j := range row {
				if rng.Intn(2) == 0 {
					row[j] = edges[rng.Intn(len(edges))]
				} else {
					row[j] = rng.Float64() * hi * hi * 1.2
				}
			}
			g.point = append(g.point, int32(s))
			g.start = append(g.start, int64(len(g.dist)))
			g.dist = append(g.dist, row...)
			g.end = append(g.end, int64(len(g.dist)))
			if len(row) >= k {
				sorted := slices.Clone(row)
				slices.Sort(sorted)
				if v := math.Sqrt(sorted[k-1]); v >= lo && v < hi {
					want = append(want, v)
				}
			}
		}
		g.nbr = make([]int32, len(g.dist))
		got := g.kBand(nil, k, lo, hi)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d k=%d: band %v, want %v", it, k, got, want)
		}
	}
}

// TestAdaptiveRequiresMaxEps holds the ε search to its one graph: a
// config whose MaxEps is not a positive finite bound would let ε
// outgrow the graph's radius, so Adaptive and OptimalEpsilon refuse it,
// on clouds too small for the elbow as well.
func TestAdaptiveRequiresMaxEps(t *testing.T) {
	clouds := []geom.Cloud{ringFrames(1, 3, 3, 2)[0], {{X: 1}}}
	for _, maxEps := range []float64{0, -0.5, math.Inf(1), math.NaN()} {
		cfg := DefaultAdaptiveConfig()
		cfg.MaxEps = maxEps
		for _, c := range clouds {
			for name, run := range map[string]func(){
				"Adaptive":       func() { Adaptive(c, cfg) },
				"OptimalEpsilon": func() { OptimalEpsilon(c, cfg) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s with MaxEps %v on %d points did not panic", name, maxEps, len(c))
						}
					}()
					run()
				}()
			}
		}
	}
}

// footprint is the bytes the graph's arrays hold.
func (g *graph) footprint() int {
	return 4*(cap(g.slot)+cap(g.point)+cap(g.cellStart)+cap(g.cellOf)+cap(g.nbr)+cap(g.parent)+cap(g.id)) +
		8*(cap(g.xs)+cap(g.ys)+cap(g.zs)+cap(g.start)+cap(g.split)+cap(g.end)+cap(g.dist)+cap(g.within)+cap(g.top)) +
		cap(g.core)
}

// TestGraphFootprint bounds what a reused Scratch keeps between frames:
// its graph is sized to the largest frame it has seen, and a pooled
// counting job holds one. On the ledger-like crowd frames (up to 1,669
// points and 147k row slots) the graph costs 12 bytes a row slot, a
// neighbour and its squared distance, plus per-point arrays: 1.9 MB.
// The bound keeps a layout or radius change that grows it from passing
// unnoticed.
func TestGraphFootprint(t *testing.T) {
	const maxBytes = 2 << 20
	var s Scratch
	most := 0
	for _, c := range ringFrames(17, 16, 32, 6) {
		s.Adaptive(c, DefaultAdaptiveConfig())
		most = max(most, s.g.footprint())
	}
	t.Logf("crowd graph footprint %d bytes", most)
	if most > maxBytes {
		t.Fatalf("a crowd frame's graph holds %d bytes, bound %d", most, maxBytes)
	}
}
