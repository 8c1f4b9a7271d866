// Package cluster implements the point-cloud clustering algorithms
// discussed in Section IV of the paper: DBSCAN with a fixed ε, the
// proposed adaptive-ε DBSCAN (per-capture ε from the k-nearest-neighbor
// elbow), and single-linkage hierarchical clustering. HAWC-CC uses
// adaptive DBSCAN; the rest are the baselines of Table IV.
//
// The density-based algorithms read every answer from one neighbour
// graph per frame (graph.go): a half-stencil sweep over a cell lattice
// counts each close pair once, with the AVX2 pair kernels of
// internal/geom/kernels, and a fill sweep writes each point's CSR row
// of neighbours and squared distances in place. The band of the
// k-distance curve, core flags, components (union-find) and border
// labels are reads of those rows. The breadth-first expansion by a
// brute-force scan of the whole cloud is kept in the tests as the
// graph's oracle, which its labels and ε must equal exactly.
// KDistanceCurve, Figure 4's whole curve, reads spatial.KNNAll.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"hawccc/internal/geom"
	"hawccc/internal/knee"
	"hawccc/internal/spatial"
)

// Noise is the label assigned to points not belonging to any cluster.
const Noise = -1

// Result holds a clustering of a point cloud.
type Result struct {
	// Labels[i] is the cluster id of cloud point i, or Noise.
	Labels []int
	// NumClusters is the number of distinct non-noise clusters.
	NumClusters int
	// Epsilon is the neighborhood radius that produced this result, when
	// the algorithm is density-based (0 otherwise).
	Epsilon float64
	// Sizes[c], when non-nil, is the point count of cluster c. The
	// density-based algorithms precount sizes so Clusters/ClustersInto can
	// materialize sub-clouds at exact capacity; algorithms that don't
	// precount leave it nil and materialization falls back to pure append.
	Sizes []int
}

// ClustersInto materializes the clustered sub-clouds, dropping noise
// points: cluster i holds the points labeled i, in cloud order. It
// reuses dst: the returned slice recycles dst's header and, where
// capacity allows, the backing arrays of its cloud entries. Streaming
// callers pass each frame's buffer back in, so steady-state cluster
// materialization stops allocating once the buffers have grown to
// match the traffic. When the result carries precounted Sizes, an entry
// that must grow is allocated at exact capacity up front instead of
// through append's doubling. The returned clouds alias dst's storage, so
// the caller must not reuse dst until it is done with them.
func (r Result) ClustersInto(cloud geom.Cloud, dst []geom.Cloud) []geom.Cloud {
	if len(r.Labels) != len(cloud) {
		panic(fmt.Sprintf("cluster: labels/cloud length mismatch %d vs %d", len(r.Labels), len(cloud)))
	}
	if cap(dst) < r.NumClusters {
		grown := make([]geom.Cloud, r.NumClusters)
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:r.NumClusters]
	}
	for i := range dst {
		dst[i] = dst[i][:0]
		if r.Sizes != nil && cap(dst[i]) < r.Sizes[i] {
			dst[i] = make(geom.Cloud, 0, r.Sizes[i])
		}
	}
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		dst[lbl] = append(dst[lbl], cloud[i])
	}
	return dst
}

// NoiseCount returns the number of points labeled Noise.
func (r Result) NoiseCount() int {
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// Scratch holds the reusable state of the density-based clustering path:
// the frame's neighbour graph plus every working buffer DBSCAN and the
// adaptive-ε search need. A zero Scratch is ready to use. Reusing one
// Scratch across frames makes the steady state allocation-free once the
// buffers have grown to the traffic.
//
// Results returned by Scratch methods alias the Scratch's buffers:
// Labels and Sizes are valid only until the Scratch's next use. Callers
// that retain results across frames (or the package-level convenience
// functions, which use a throwaway Scratch) get freshly allocated
// buffers by construction. A Scratch is not safe for concurrent use.
type Scratch struct {
	g graph

	labels []int
	sizes  []int
	dists  []float64

	// Coarse-pass cache: structureGap's DBSCAN at the fallback ε, kept so
	// Adaptive can return it directly when the final ε is the fallback.
	coarseNum    int
	coarseLabels []int
	coarseSizes  []int

	// structureGap working buffers.
	sums      []geom.Point3
	centroids geom.Cloud
	gaps      []float64
}

// DBSCAN clusters the cloud with the classic density-based algorithm:
// a point is a core point when at least minPts points (itself included)
// lie within eps; clusters are the connected components of core points
// plus their border neighbors. The frame's neighbour graph at eps is
// built by one sweep over an eps-sized cell lattice (Ester et al. 1996's
// grid, visited pair by pair), so a frame clusters in near-linear time.
func DBSCAN(cloud geom.Cloud, eps float64, minPts int) Result {
	var s Scratch
	return s.DBSCAN(cloud, eps, minPts)
}

// DBSCAN is the Scratch-backed form of the package-level DBSCAN: same
// labels, but the graph and every working buffer come from the Scratch.
// The result aliases the Scratch's buffers (see Scratch).
func (s *Scratch) DBSCAN(cloud geom.Cloud, eps float64, minPts int) Result {
	if len(cloud) == 0 || eps <= 0 || minPts < 1 {
		return s.degenerate(len(cloud), eps)
	}
	s.g.build(cloud, eps)
	return s.labelAt(len(cloud), eps, minPts)
}

// degenerate labels every point noise (empty cloud or nonsensical
// parameters).
func (s *Scratch) degenerate(n int, eps float64) Result {
	s.labels = grow(s.labels, n)
	for i := range s.labels {
		s.labels[i] = Noise
	}
	return Result{Labels: s.labels, Epsilon: eps}
}

// labelAt labels the n-point cloud the graph was built over at eps, at
// most the graph's radius.
func (s *Scratch) labelAt(n int, eps float64, minPts int) Result {
	s.labels = grow(s.labels, n)
	num := s.g.label(s.labels, eps, minPts)
	s.sizes = countSizes(s.labels, grow(s.sizes, num))
	return Result{Labels: s.labels, NumClusters: num, Epsilon: eps, Sizes: s.sizes}
}

// countSizes tallies per-cluster point counts into sizes, whose length
// is the cluster count.
func countSizes(labels, sizes []int) []int {
	for c := range sizes {
		sizes[c] = 0
	}
	for _, l := range labels {
		if l != Noise {
			sizes[l]++
		}
	}
	return sizes
}

// AdaptiveConfig parameterizes adaptive DBSCAN. The zero value is not
// useful; use DefaultAdaptiveConfig.
type AdaptiveConfig struct {
	// K is which nearest neighbor's distance feeds the elbow curve
	// (the paper plots k-NN distances; k = MinPts-1 is the usual choice).
	K int
	// MinPts is DBSCAN's core-point density threshold.
	MinPts int
	// FallbackEps is used when the capture is too small for elbow
	// detection or the band contains no curve values.
	FallbackEps float64
	// MinEps and MaxEps bound the elbow search to the physically
	// meaningful band. Below MinEps a neighborhood cannot span the
	// sensor's beam-row spacing at range, so no body can cohere; above
	// MaxEps a neighborhood exceeds the pedestrian separation scale and
	// merges the scene. The paper observes the same pathology from the
	// unconstrained elbow (Figure 4b: optimal ε up to 9.06) and notes
	// that deployed values must be clamped. MaxEps must be positive and
	// finite: it is the radius of the frame's neighbour graph, which
	// answers every ε the elbow can land on, and Adaptive and
	// OptimalEpsilon panic without it.
	MinEps, MaxEps float64
}

// DefaultAdaptiveConfig mirrors the deployment configuration described in
// Section IV.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{K: 4, MinPts: 5, FallbackEps: 0.3, MinEps: 0.2, MaxEps: 0.5}
}

// check panics unless MaxEps bounds the elbow's band (see MaxEps).
func (cfg AdaptiveConfig) check() {
	if !(cfg.MaxEps > 0) || math.IsInf(cfg.MaxEps, 1) {
		panic(fmt.Sprintf("cluster: AdaptiveConfig.MaxEps %v, want positive and finite", cfg.MaxEps))
	}
}

// OptimalEpsilon computes the per-capture ε: sort every point's K-th
// nearest-neighbor distance ascending and take the curve value at the
// elbow (paper Section IV), with the elbow search restricted to the
// [MinEps, MaxEps] band. It returns the fallback for degenerate clouds.
func OptimalEpsilon(cloud geom.Cloud, cfg AdaptiveConfig) float64 {
	var s Scratch
	return s.OptimalEpsilon(cloud, cfg)
}

// OptimalEpsilon is the Scratch-backed form of the package-level
// OptimalEpsilon.
func (s *Scratch) OptimalEpsilon(cloud geom.Cloud, cfg AdaptiveConfig) float64 {
	cfg.check()
	if cfg.K < 1 || len(cloud) < cfg.K+2 {
		return cfg.FallbackEps
	}
	return s.epsilon(cloud, cfg)
}

// epsilon builds the frame's neighbour graph at max(FallbackEps,
// MaxEps), reads the band of the k-distance curve and the coarse pass
// from it, and returns the elbow capped by the structure gap.
func (s *Scratch) epsilon(cloud geom.Cloud, cfg AdaptiveConfig) float64 {
	s.g.build(cloud, max(cfg.FallbackEps, cfg.MaxEps))
	s.dists = s.g.kBand(s.dists[:0], cfg.K, cfg.MinEps, cfg.MaxEps)
	sort.Float64s(s.dists)
	eps := elbow(s.dists, cfg)
	s.coarseLabels = grow(s.coarseLabels, len(cloud))
	s.coarseNum = s.g.label(s.coarseLabels, cfg.FallbackEps, cfg.MinPts)
	return s.refine(eps, cloud, cfg)
}

// elbow picks ε from the sorted band of the k-distance curve: the last
// significant jump, clamped into [MinEps, MaxEps].
func elbow(band []float64, cfg AdaptiveConfig) float64 {
	eps := lastSignificantJump(band, cfg.FallbackEps)
	if eps <= 0 {
		eps = cfg.FallbackEps
	}
	if cfg.MinEps > 0 && eps < cfg.MinEps {
		eps = cfg.MinEps
	}
	return min(eps, cfg.MaxEps)
}

// refine is the structural refinement: the elbow proposes, the scene's
// cluster spacing caps. The coarse density pass (the Scratch's coarse
// labels, at the fallback ε) measures how closely separate structures
// sit; in crowded captures the gap shrinks and ε must shrink with it or
// neighbors chain into one cluster. This is the "adjusts to point cloud
// structure and density" behavior of Section IV operationalized for
// scenes denser than the training walkway.
func (s *Scratch) refine(eps float64, pts geom.Cloud, cfg AdaptiveConfig) float64 {
	s.coarseSizes = countSizes(s.coarseLabels, grow(s.coarseSizes, s.coarseNum))
	if gap, ok := s.structureGap(pts); ok {
		cap := gap / 3
		if cap < cfg.MinEps {
			cap = cfg.MinEps
		}
		if eps > cap {
			eps = cap
		}
	}
	return eps
}

// KDistanceCurve returns the sorted k-distance curve of cloud (Figure
// 4a) in dst's backing array: every point's distance to its k-th nearest
// other point, ascending. k must be at least 1; a point with fewer than
// k others reads its farthest. A non-finite coordinate yields NaN or +Inf
// distances, which sort to the two ends of the curve.
func KDistanceCurve(dst []float64, cloud geom.Cloud, k int) []float64 {
	dst = grow(dst, len(cloud))
	// k+1 because the query point itself sits at distance 0.
	spatial.KNNAll(cloud, k+1, func(i int, nn []spatial.Neighbor) {
		dst[i] = math.Sqrt(nn[len(nn)-1].Dist2)
	})
	sort.Float64s(dst)
	return dst
}

// structureGap estimates the separation scale between substantial
// structures from the coarse pass: the 10th percentile of
// nearest-centroid distances among its clusters with at least
// structureMinPts points. ok is false when the scene has fewer than two
// such structures.
func (s *Scratch) structureGap(pts geom.Cloud) (float64, bool) {
	const structureMinPts = 15

	num := s.coarseNum
	s.sums = grow(s.sums, num)
	sums := s.sums
	for c := range sums {
		sums[c] = geom.Point3{}
	}
	for i, l := range s.coarseLabels {
		if l != Noise {
			sums[l] = sums[l].Add(pts[i])
		}
	}
	centroids := s.centroids[:0]
	for c, cnt := range s.coarseSizes {
		if cnt >= structureMinPts {
			centroids = append(centroids, sums[c].Scale(1/float64(cnt)))
		}
	}
	s.centroids = centroids
	if len(centroids) < 2 {
		return 0, false
	}
	gaps := s.gaps[:0]
	for i, p := range centroids {
		best := math.Inf(1)
		for j, q := range centroids {
			if i == j {
				continue
			}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		gaps = append(gaps, best)
	}
	s.gaps = gaps
	sort.Float64s(gaps)
	return gaps[len(gaps)/10], true
}

// lastSignificantJump locates the elbow as the last curve value within
// the band whose relative successive jump reaches 40% of the band's
// maximum relative jump — the paper's argmax criterion made robust to
// noise, preferring the final intra-cluster→noise transition so sparse
// distant bodies still cohere. It falls back when the band is too short.
func lastSignificantJump(band []float64, fallback float64) float64 {
	if len(band) < 3 {
		return knee.Value(band, fallback)
	}
	best := 0.0
	for i := 0; i+1 < len(band); i++ {
		if band[i] <= 0 {
			continue
		}
		if g := (band[i+1] - band[i]) / band[i]; g > best {
			best = g
		}
	}
	if best == 0 {
		return fallback
	}
	for i := len(band) - 2; i >= 0; i-- {
		if band[i] <= 0 {
			continue
		}
		if g := (band[i+1] - band[i]) / band[i]; g >= 0.4*best {
			return band[i]
		}
	}
	return fallback
}

// Adaptive runs the paper's adaptive clustering: pick ε for this capture
// via OptimalEpsilon, then run DBSCAN with it.
func Adaptive(cloud geom.Cloud, cfg AdaptiveConfig) Result {
	var s Scratch
	return s.Adaptive(cloud, cfg)
}

// Adaptive is the Scratch-backed form of the package-level Adaptive and
// the geometry stage's per-frame entry point. The frame's neighbour
// graph is built once, at a radius covering every ε the elbow can land
// on, and answers the curve, the coarse structure pass and the final
// labels; when the elbow lands on the fallback ε, the coarse pass *is*
// the final result. The result aliases the Scratch's buffers (see
// Scratch).
func (s *Scratch) Adaptive(cloud geom.Cloud, cfg AdaptiveConfig) Result {
	cfg.check()
	if cfg.K < 1 || len(cloud) < cfg.K+2 {
		return s.DBSCAN(cloud, cfg.FallbackEps, cfg.MinPts)
	}
	eps := s.epsilon(cloud, cfg)
	if eps == cfg.FallbackEps {
		return Result{Labels: s.coarseLabels, NumClusters: s.coarseNum, Epsilon: eps, Sizes: s.coarseSizes}
	}
	return s.labelAt(len(cloud), eps, cfg.MinPts)
}
