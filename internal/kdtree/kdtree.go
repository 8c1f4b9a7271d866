// Package kdtree implements a static 3-dimensional k-d tree over LiDAR
// point clouds. It is the reference the running system's voxel grid
// (internal/spatial) is held to: tests import it as the oracle for the
// adaptive-clustering k-nearest-neighbor distance curve (Section IV),
// DBSCAN's ε-range queries, and the height-aware projection's per-point
// neighborhood height variance (Section V). No non-test package imports
// it.
//
// The tree is built once over an immutable cloud; queries are read-only and
// safe for concurrent use. KNN results follow the neighbor ordering
// contract the grid shares: ascending (Dist2, Index), with distance ties
// broken by the lower original cloud index, so the tree and the grid
// return bit-identical neighbor sets.
package kdtree

import (
	"hawccc/internal/geom"
)

// Tree is a balanced, statically built 3D k-d tree. The zero value is an
// empty tree for which every query returns no results; use New to build
// one over a cloud.
type Tree struct {
	pts  geom.Cloud // points reordered into tree layout
	idx  []int      // idx[i] is the original cloud index of pts[i]
	axis []int8     // split axis per node, -1 for leaf slots
}

// New builds a k-d tree over cloud. The cloud is copied; later mutation of
// the caller's slice does not affect the tree.
func New(cloud geom.Cloud) *Tree {
	t := &Tree{
		pts:  cloud.Clone(),
		idx:  make([]int, len(cloud)),
		axis: make([]int8, len(cloud)),
	}
	for i := range t.idx {
		t.idx[i] = i
	}
	t.build(0, len(t.pts), 0)
	return t
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int {
	if t == nil {
		return 0
	}
	return len(t.pts)
}

// build recursively arranges pts[lo:hi] into k-d order: the median on the
// widest-spread axis goes to the middle, smaller values left, larger right.
func (t *Tree) build(lo, hi, depth int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if n == 1 {
		t.axis[lo] = -1
		return
	}
	ax := t.widestAxis(lo, hi)
	mid := lo + n/2
	t.selectMedian(lo, hi, mid, ax)
	t.axis[mid] = int8(ax)
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// widestAxis returns the axis with the largest coordinate spread in
// pts[lo:hi]. Splitting on the widest axis keeps cells close to cubical,
// which matters for the radius queries DBSCAN issues.
func (t *Tree) widestAxis(lo, hi int) int {
	b := geom.EmptyBox()
	for i := lo; i < hi; i++ {
		b = b.Extend(t.pts[i])
	}
	size := b.Size()
	ax := 0
	best := size.X
	if size.Y > best {
		ax, best = 1, size.Y
	}
	if size.Z > best {
		ax = 2
	}
	return ax
}

// selectMedian partially sorts pts[lo:hi] so that the element at position
// mid is the one that would be there under a full sort by the given axis
// (quickselect with median-of-three pivoting).
func (t *Tree) selectMedian(lo, hi, mid, ax int) {
	for hi-lo > 1 {
		p := t.medianOfThree(lo, hi, ax)
		i, j := lo, hi-1
		for i <= j {
			for t.pts[i].Coord(ax) < p {
				i++
			}
			for t.pts[j].Coord(ax) > p {
				j--
			}
			if i <= j {
				t.swap(i, j)
				i++
				j--
			}
		}
		switch {
		case mid <= j:
			hi = j + 1
		case mid >= i:
			lo = i
		default:
			return
		}
	}
}

func (t *Tree) medianOfThree(lo, hi, ax int) float64 {
	a := t.pts[lo].Coord(ax)
	b := t.pts[lo+(hi-lo)/2].Coord(ax)
	c := t.pts[hi-1].Coord(ax)
	// Return the middle of a, b, c.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

func (t *Tree) swap(i, j int) {
	t.pts[i], t.pts[j] = t.pts[j], t.pts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// Neighbor is a query result: the original cloud index of the point and its
// squared distance from the query point.
type Neighbor struct {
	Index int
	Dist2 float64
}

// KNN returns the k nearest neighbors of q in ascending (Dist2, Index)
// order. If the tree holds fewer than k points, all points are returned.
// The query point itself is included if it is in the tree; callers that
// want strict neighbors of an indexed point typically ask for k+1 and drop
// the first.
func (t *Tree) KNN(q geom.Point3, k int) []Neighbor {
	if t == nil || k <= 0 || len(t.pts) == 0 {
		return nil
	}
	return t.KNNInto(nil, q, k)
}

// KNNInto is KNN reusing dst's backing array for the result (and as the
// search heap), following the Into convention of ground, cluster, and
// lidarsim: the returned slice starts at dst[:0] and grows only when
// cap(dst) < k, so steady-state callers stop allocating once the buffer
// has grown to the largest k they ask for. Results are identical to KNN's.
func (t *Tree) KNNInto(dst []Neighbor, q geom.Point3, k int) []Neighbor {
	dst = dst[:0]
	if t == nil || k <= 0 || len(t.pts) == 0 {
		return dst
	}
	if k > len(t.pts) {
		k = len(t.pts)
	}
	h := neighborHeap{items: dst, max: k}
	t.knn(0, len(t.pts), q, &h)
	SortNeighbors(h.items)
	return h.items
}

func (t *Tree) knn(lo, hi int, q geom.Point3, h *neighborHeap) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if n == 1 {
		h.offer(Neighbor{t.idx[lo], q.Dist2(t.pts[lo])})
		return
	}
	mid := lo + n/2
	ax := int(t.axis[mid])
	h.offer(Neighbor{t.idx[mid], q.Dist2(t.pts[mid])})
	delta := q.Coord(ax) - t.pts[mid].Coord(ax)
	// Search the near side first, then the far side unless the splitting
	// plane is strictly farther than the current k-th best distance. The
	// far side is still explored on exact ties so that an equal-distance,
	// lower-index point beyond the plane can claim its slot — the
	// deterministic tie-break every NeighborIndex shares.
	if delta < 0 {
		t.knn(lo, mid, q, h)
		if !h.full() || delta*delta <= h.worst() {
			t.knn(mid+1, hi, q, h)
		}
	} else {
		t.knn(mid+1, hi, q, h)
		if !h.full() || delta*delta <= h.worst() {
			t.knn(lo, mid, q, h)
		}
	}
}

// Radius returns the indices of all points within radius r of q
// (inclusive). The result order is unspecified.
func (t *Tree) Radius(q geom.Point3, r float64) []int {
	if t == nil || len(t.pts) == 0 || r < 0 {
		return nil
	}
	return t.radius(0, len(t.pts), q, r*r, nil)
}

// RadiusInto is Radius appending into dst (callers typically pass
// dst[:0]), mirroring the Into buffer-reuse convention: once dst has
// grown to the densest neighborhood, repeated queries stop allocating.
// Contents and order are exactly Radius's.
func (t *Tree) RadiusInto(dst []int, q geom.Point3, r float64) []int {
	if t == nil || len(t.pts) == 0 || r < 0 {
		return dst
	}
	return t.radius(0, len(t.pts), q, r*r, dst)
}

// RadiusCount returns the number of points within radius r of q without
// allocating the result slice; DBSCAN's core-point test only needs counts.
func (t *Tree) RadiusCount(q geom.Point3, r float64) int {
	if t == nil || len(t.pts) == 0 || r < 0 {
		return 0
	}
	return t.radiusCount(0, len(t.pts), q, r*r)
}

func (t *Tree) radius(lo, hi int, q geom.Point3, r2 float64, out []int) []int {
	n := hi - lo
	if n <= 0 {
		return out
	}
	if n == 1 {
		if q.Dist2(t.pts[lo]) <= r2 {
			out = append(out, t.idx[lo])
		}
		return out
	}
	mid := lo + n/2
	ax := int(t.axis[mid])
	if q.Dist2(t.pts[mid]) <= r2 {
		out = append(out, t.idx[mid])
	}
	delta := q.Coord(ax) - t.pts[mid].Coord(ax)
	if delta < 0 {
		out = t.radius(lo, mid, q, r2, out)
		if delta*delta <= r2 {
			out = t.radius(mid+1, hi, q, r2, out)
		}
	} else {
		out = t.radius(mid+1, hi, q, r2, out)
		if delta*delta <= r2 {
			out = t.radius(lo, mid, q, r2, out)
		}
	}
	return out
}

func (t *Tree) radiusCount(lo, hi int, q geom.Point3, r2 float64) int {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	if n == 1 {
		if q.Dist2(t.pts[lo]) <= r2 {
			return 1
		}
		return 0
	}
	mid := lo + n/2
	ax := int(t.axis[mid])
	count := 0
	if q.Dist2(t.pts[mid]) <= r2 {
		count++
	}
	delta := q.Coord(ax) - t.pts[mid].Coord(ax)
	if delta < 0 {
		count += t.radiusCount(lo, mid, q, r2)
		if delta*delta <= r2 {
			count += t.radiusCount(mid+1, hi, q, r2)
		}
	} else {
		count += t.radiusCount(mid+1, hi, q, r2)
		if delta*delta <= r2 {
			count += t.radiusCount(lo, mid, q, r2)
		}
	}
	return count
}

// Less is the package-wide total order on neighbors: ascending distance,
// ties broken by the lower original cloud index. A total order makes the
// k-nearest set a pure function of the cloud and query — independent of
// traversal order — which is what lets the k-d tree and the voxel grid
// (internal/spatial, which keeps its own copy of this order) promise
// bit-identical results.
func Less(a, b Neighbor) bool {
	return a.Dist2 < b.Dist2 || (a.Dist2 == b.Dist2 && a.Index < b.Index)
}

// SortNeighbors orders ns ascending under Less. Insertion sort: k is
// single digits on every hot path, and unlike sort.Slice it performs no
// heap allocation, which the Into query variants rely on.
func SortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && Less(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// neighborHeap is a bounded max-heap under Less; it keeps the `max`
// smallest candidates seen so far.
type neighborHeap struct {
	items []Neighbor
	max   int
}

func (h *neighborHeap) full() bool { return len(h.items) >= h.max }

// worst returns the largest retained distance; callers must ensure the heap
// is non-empty (full() implies non-empty since max >= 1).
func (h *neighborHeap) worst() float64 { return h.items[0].Dist2 }

func (h *neighborHeap) offer(n Neighbor) {
	if len(h.items) < h.max {
		h.items = append(h.items, n)
		h.up(len(h.items) - 1)
		return
	}
	if !Less(n, h.items[0]) {
		return
	}
	h.items[0] = n
	h.down(0)
}

func (h *neighborHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *neighborHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && Less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && Less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}
