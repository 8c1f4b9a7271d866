package spatial

import (
	"math"
	"math/bits"
	"slices"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// smallMax is the largest cloud KNNAll answers by the small-cloud path:
// one exact vector pass over the whole cloud per query. Its cost per
// query grows with n, the column search's does not. On 2 vCPUs
// (BenchmarkKNNAllPaths) the two break even on ingested frames thinned
// to 256–384 points, while on classifier inputs the small path is still
// ahead at 640, so σz's 225-point inputs and every walkway frame's ε
// curve (71–346 points) take it, and crowd frames (~1,000–1,500) do not.
const smallMax = 384

// groups is the number of strided index groups the distance pass keeps
// a minimum for, and so the largest k the small-cloud path answers.
const groups = 16

// loadSmall lays the cloud out for the small-cloud path: one coordinate
// slice per axis, padded with NaN to a multiple of 16 points — the
// kernels work 16 at a time, and a NaN distance is never a group
// minimum nor under a bound. It reports false, leaving the cloud to the
// columns, when a coordinate is not finite.
func (s *allScratch) loadSmall(cloud geom.Cloud) bool {
	n := len(cloud)
	m := (n + groups - 1) &^ (groups - 1)
	s.xs = slices.Grow(s.xs[:0], m)[:m]
	s.ys = slices.Grow(s.ys[:0], m)[:m]
	s.zs = slices.Grow(s.zs[:0], m)[:m]
	// x·0 is 0 for a finite x and NaN for an infinite or NaN one.
	var zero float64
	for i, p := range cloud {
		s.xs[i], s.ys[i], s.zs[i] = p.X, p.Y, p.Z
		zero += p.X*0 + p.Y*0 + p.Z*0
	}
	if zero != 0 {
		return false
	}
	for i := n; i < m; i++ {
		s.xs[i], s.ys[i], s.zs[i] = math.NaN(), math.NaN(), math.NaN()
	}
	s.d2 = slices.Grow(s.d2[:0], m)[:m]
	s.cand = slices.Grow(s.cand[:0], m)[:m]
	return true
}

// allSmall is knnAll on a cloud loadSmall accepted, k ≤ groups.
func (s *allScratch) allSmall(cloud geom.Cloud, k int, fn func(i int, nn []Neighbor)) (ties int) {
	s.k = k
	s.mask = 1<<bits.Len(uint(len(cloud)-1)) - 1
	s.nn = slices.Grow(s.nn[:0], k)[:0]
	for i, q := range cloud {
		nn, tie := s.querySmall(q)
		if tie {
			ties++
		}
		fn(i, nn)
	}
	return ties
}

// querySmall returns the k nearest neighbors of q and whether it took
// the exact pass.
//
// The distance pass gives every point's squared distance — Dist2's bits
// — and the least of each of 16 strided index groups. The k-th smallest
// group minimum bounds the k-th distance, since k distinct points lie
// within it. Raised to the largest distance sharing its key prefix (see
// allScratch), the bound keeps every point whose key can be among the k
// smallest or tie the k-th on its prefix: the candidates, about 9 per
// query at k = 8 on classifier inputs. Ranking their keys (SelectLE)
// picks the k smallest and the (k+1)-th, and the rest is query's
// argument: distinct prefixes at the boundary settle the set, and a
// shared one sends the point to the exact pass over the candidates (one
// query in twenty on classifier inputs, where duplicated points put
// equal distances at the boundary), as do more candidates than the
// ranking holds (one in a thousand).
func (s *allScratch) querySmall(q geom.Point3) (nn []Neighbor, tie bool) {
	k, mask := s.k, s.mask
	var mins [groups]float64
	kth := kernels.Dist2Min16(s.d2, s.xs, s.ys, s.zs, q.X, q.Y, q.Z, &mins, k)
	// Squared distances are never negative, so their bits order as they
	// do; +Inf is the largest, and ORing the index bits into it would
	// make a NaN.
	bound := min(math.Float64bits(kth)|mask, math.Float64bits(math.Inf(1)))
	top := &s.ranked
	m := kernels.SelectLE(s.cand, s.d2, math.Float64frombits(bound), mask, k, top)
	cand := s.cand[:m]
	if m > groups || (top[k-1]^top[k])&^mask == 0 {
		return s.exact(cand), true
	}
	nn = s.nn[:k]
	d2 := s.d2
	// apart is the least prefix difference between keys of adjacent
	// ranks: distinct prefixes order the distances as the keys do, and an
	// equal one leaves the order to the exact distances.
	apart := uint64(math.MaxUint64)
	for r := range nn {
		j := top[r] & mask
		nn[r] = Neighbor{Index: int(j), Dist2: d2[j]}
		if r > 0 {
			apart = min(apart, (top[r]^top[r-1])&^mask)
		}
	}
	if apart == 0 {
		sortNeighbors(nn)
	}
	return nn, false
}

// exact answers a query by inserting each of its candidates under less.
func (s *allScratch) exact(cand []int32) []Neighbor {
	s.nn = s.nn[:0]
	for _, p := range cand {
		s.insert(Neighbor{Index: int(p), Dist2: s.d2[p]})
	}
	return s.nn
}
