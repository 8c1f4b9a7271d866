// Package spatial provides the neighbor searches behind the geometry
// stage of the counting pipeline: a uniform voxel grid for fixed-radius
// counts and KNNAll, the one k-nearest search.
//
// The grid follows the classic observation of the DBSCAN literature
// (Ester et al. 1996): when the query radius is known up front,
// bucketing points into radius-sized voxels turns every region query
// into a 3×3×3 cell scan — no tree descent, no log factor, and no
// per-query allocation. It is built once per frame (see FrameIndex) for
// the projection's density channel, which only counts; the cluster
// stage reads its own neighbour graph (internal/cluster). Every
// k-nearest list — the projection's σz neighborhoods and Figure 4's
// k-distance curve — comes from KNNAll, which keeps its own column
// index.
//
// One neighbor-ordering contract holds throughout: k-nearest-neighbor
// sets are the k smallest candidates under ascending (Dist2, Index), ties
// broken by the lower cloud index, and radius queries include points at
// exactly radius r. The tests hold the grid and KNNAll to that
// definition by brute force: a scan of the whole cloud, ranked by a
// comparison written out in the test.
package spatial

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
