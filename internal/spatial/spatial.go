// Package spatial provides the neighbor searches behind the geometry
// stage of the counting pipeline: a uniform voxel grid for fixed-radius
// queries, the NeighborIndex interface it answers them through (where
// the equivalence tests substitute the k-d tree oracle, internal/kdtree),
// and KNNAll, the one k-nearest search.
//
// The grid follows the classic observation of the DBSCAN literature
// (Ester et al. 1996): when the query radius is known up front,
// bucketing points into radius-sized voxels turns every region query
// into a 3×3×3 cell scan — no tree descent, no log factor, and no
// per-query allocation. It is built once per frame (see FrameIndex) for
// the projection's density channel, which only counts; the cluster
// stage reads its own neighbour graph (internal/cluster), and the
// breadth-first DBSCAN expansion over a NeighborIndex, the one caller
// that materializes neighbours, is that graph's test oracle. Every
// k-nearest list — the projection's σz neighborhoods and Figure 4's
// k-distance curve — comes from KNNAll, which keeps its own column
// index.
//
// One neighbor-ordering contract holds throughout: k-nearest-neighbor
// sets are the k smallest candidates under ascending (Dist2, Index), ties
// broken by the lower cloud index, and radius queries include points at
// exactly radius r. internal/kdtree honors the same contract, so the grid,
// KNNAll and the tree return bit-identical results, which is what the
// property tests against the tree, here and in the cluster package, pin.
package spatial

import "hawccc/internal/geom"

// Neighbor is a kNN query result: the cloud index of the point and its
// squared distance from the query point.
type Neighbor struct {
	Index int
	Dist2 float64
}

// less is the total order on neighbors: ascending distance, ties broken
// by the lower cloud index. A total order makes the k-nearest set a pure
// function of the cloud and query, independent of traversal order. A NaN
// distance — from a non-finite coordinate — ranks after every other,
// NaNs by index, so the order stays total on any input.
func less(a, b Neighbor) bool {
	switch {
	case a.Dist2 < b.Dist2:
		return true
	case a.Dist2 == b.Dist2:
		return a.Index < b.Index
	case a.Dist2 != a.Dist2:
		return b.Dist2 != b.Dist2 && a.Index < b.Index
	}
	return b.Dist2 != b.Dist2
}

// sortNeighbors orders ns ascending under less. Insertion sort: k is
// single digits on every hot path, and unlike sort.Slice it performs no
// heap allocation, which the Into query variants rely on.
func sortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && less(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// NeighborIndex is the small radius-query surface the geometry stage
// needs from a spatial index. *Grid implements it.
//
// RadiusInto appends into dst (callers typically pass dst[:0]) and is
// allocation-free once dst has grown to the result size; its result
// order is implementation-defined. Radius results include points at
// exactly distance r.
type NeighborIndex interface {
	// Len returns the number of indexed points.
	Len() int
	// RadiusInto appends the indices of all points within r of q
	// (inclusive) to dst and returns the extended slice.
	RadiusInto(dst []int, q geom.Point3, r float64) []int
	// RadiusCount returns the number of points within r of q without
	// materializing them.
	RadiusCount(q geom.Point3, r float64) int
}

var _ NeighborIndex = (*Grid)(nil)
