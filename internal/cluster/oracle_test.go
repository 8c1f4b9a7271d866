package cluster

import (
	"sort"

	"hawccc/internal/geom"
)

// The breadth-first DBSCAN expansion, each ε-region read by a scan of
// the whole cloud, is the neighbour graph's oracle: the labels the
// graph derives by union-find must equal the ones it produces, and the
// ε search over it must land on the same ε.

// dbscan is DBSCAN by expansion.
func (s *Scratch) dbscan(pts geom.Cloud, eps float64, minPts int) Result {
	labels := make([]int, len(pts))
	num := expand(pts, eps, minPts, labels)
	return Result{Labels: labels, NumClusters: num, Epsilon: eps, Sizes: countSizes(labels, make([]int, num))}
}

// optimalEpsilon is the ε search by expansion: the whole k-distance
// curve from KDistanceCurve, then the coarse pass by expansion, then the
// shared elbow and structural refinement.
func (s *Scratch) optimalEpsilon(pts geom.Cloud, cfg AdaptiveConfig) float64 {
	eps := elbow(bandOf(KDistanceCurve(nil, pts, cfg.K), cfg), cfg)
	s.coarseLabels = make([]int, len(pts))
	s.coarseNum = expand(pts, cfg.FallbackEps, cfg.MinPts, s.coarseLabels)
	return s.refine(eps, pts, cfg)
}

// bandOf cuts the elbow's search band, [MinEps, MaxEps), from the whole
// sorted k-distance curve.
func bandOf(curve []float64, cfg AdaptiveConfig) []float64 {
	return curve[sort.SearchFloat64s(curve, cfg.MinEps):sort.SearchFloat64s(curve, cfg.MaxEps)]
}

// expand runs the DBSCAN expansion over pts, writing cluster ids (or
// Noise) into labels and returning the cluster count. Clusters are
// seeded in ascending index order and grown breadth-first; a border
// point keeps the first cluster that reaches it. A point's ε-region is
// every point j of the cloud with Dist2 ≤ eps², itself included.
func expand(pts geom.Cloud, eps float64, minPts int, labels []int) int {
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, len(pts))
	eps2 := eps * eps
	region := func(dst []int, q geom.Point3) []int {
		for j, p := range pts {
			if q.Dist2(p) <= eps2 {
				dst = append(dst, j)
			}
		}
		return dst
	}
	var queue, nbuf []int
	next := 0
	for i := range pts {
		if visited[i] {
			continue
		}
		visited[i] = true
		nbuf = region(nbuf[:0], pts[i])
		if len(nbuf) < minPts {
			continue // noise (may be claimed later as a border point)
		}
		labels[i] = next
		queue = append(queue[:0], nbuf...)
		for cur := 0; cur < len(queue); cur++ {
			j := queue[cur]
			if labels[j] == Noise {
				labels[j] = next // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = next
			nbuf = region(nbuf[:0], pts[j])
			if len(nbuf) >= minPts {
				queue = append(queue, nbuf...)
			}
		}
		next++
	}
	return next
}
