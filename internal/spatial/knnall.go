package spatial

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// KNNAll calls fn(i, nn) once for every point i of cloud, with nn its
// min(k, n) nearest neighbors in cloud, ascending under (Dist2, Index) —
// element for element the first min(k, n) of the whole cloud ranked from
// cloud[i], for any input order and any k. nn is valid only during the
// call, and the order of the calls is unspecified. It is the one
// k-nearest search of the running system: the adaptive-ε curve and the
// projection's σz channel. Scratch comes from a pool, so steady-state
// calls do not allocate.
//
// A small cloud — at most smallMax points, all coordinates finite, k ≤
// 16, and the vector kernels in use — is answered by one exact AVX2
// pass over the whole cloud per point (see allScratch.querySmall): every
// squared distance, computed as Dist2 computes it, and the minimum of
// each of 16 strided index groups. The k-th smallest group minimum
// bounds the k-th distance, since k distinct points lie within it; the
// points under that bound, about 9 at k = 8, are ranked by key
// branch-free, and a prefix tie at the k-th key falls back to an exact
// pass under (Dist2, Index). The distances are Dist2's bits and the
// order is the oracle's, so the answer cannot move. smallMax is where
// the two paths break even on ingested frames (DESIGN.md).
//
// Every other cloud — larger ones, non-finite ones, k > 16, and every
// cloud without the vector kernels (arm64, kernels.SetVectorized(false))
// — is binned into xy columns, each column's run ascending in (z,
// index); a height-major cloud arrives in that order, so the sort is one
// linear check. A query sweeps its own column up and down from its own
// position, then the columns of each Chebyshev ring around it, and keeps
// the k+1 smallest candidate keys (see allScratch.sweep). The search
// skips a column, stops a sweep or stops at a ring only on a lower bound
// that the candidate's computed squared distance cannot undercut, and it
// prunes against an upper bound on the k-th distance, so it never drops
// one of the exact k nearest.
func KNNAll(cloud geom.Cloud, k int, fn func(i int, nn []Neighbor)) {
	knnAll(cloud, k, fn)
}

// knnAll is KNNAll, returning how many points were answered by an exact
// pass over their candidates (see allScratch.query and querySmall).
func knnAll(cloud geom.Cloud, k int, fn func(i int, nn []Neighbor)) (ties int) {
	if k <= 0 {
		for i := range cloud {
			fn(i, nil)
		}
		return 0
	}
	if len(cloud) == 0 {
		return 0
	}
	k = min(k, len(cloud))
	s := allPool.Get().(*allScratch)
	defer allPool.Put(s)
	if len(cloud) <= smallMax && k <= groups && kernels.Vectorized() && s.loadSmall(cloud) {
		return s.allSmall(cloud, k, fn)
	}
	s.build(cloud, k)
	return s.allColumns(cloud, fn)
}

// allColumns is knnAll on a cloud build has laid out in columns.
func (s *allScratch) allColumns(cloud geom.Cloud, fn func(i int, nn []Neighbor)) (ties int) {
	// The previous query and its k-th distance² seed each query's bound.
	var prev geom.Point3
	kth := math.NaN()
	for c := 0; c < s.nx*s.ny; c++ {
		cx, cy := c%s.nx, c/s.nx
		for j := int(s.start[c]); j < int(s.start[c+1]); j++ {
			q := s.pts[j].Point3
			nn, tie := s.query(cloud, j, cx, cy, s.seed(prev, q, kth))
			if tie {
				ties++
			}
			fn(int(s.pts[j].id), nn)
			prev, kth = q, nn[len(nn)-1].Dist2
		}
	}
	return ties
}

// colPoint is a point in column order, with its cloud index.
type colPoint struct {
	geom.Point3
	id int32
}

// allScratch is one KNNAll call's state: the column layout of the cloud
// and one query's selection. It is pooled, so a caller making one pass
// per classified cluster stops allocating once the buffers have grown.
//
// Selection works on keys: a candidate's key is Float64bits of its
// squared distance with the low bits — as many as the largest point
// index needs — replaced by its index. Squared distances are
// non-negative, so ordering the keys as integers orders the distances
// with their low bits dropped, ties on that prefix broken by index.
// top holds the k smallest keys, ascending, and spill the smallest key
// pushed out of it — the (k+1)-th; a candidate passes through top as k
// branch-free min/max steps.
type allScratch struct {
	pts   []colPoint // the cloud in column order
	start []int32    // column c owns pts[start[c]:start[c+1]]
	col   []int32    // build scratch: each point's column

	// Columns: column (cx, cy) is c = cy·nx + cx and holds the points
	// with floor((x-minX)·inv) = cx and floor((y-minY)·inv) = cy.
	nx, ny     int
	minX, minY float64
	inv        float64
	// e2 is the column edge squared, shrunk by a relative margin, and
	// slack the rounding error of a column coordinate, in edges; see
	// lowerBound.
	e2, slack float64

	mask  uint64     // the index bits of a key
	top   []uint64   // the k smallest keys so far, ascending
	spill uint64     // the smallest key pushed out of top
	ceil  uint64     // the query's seeded bound, as key bits
	bound float64    // pruning bound on distance²; see sweep
	cands []Neighbor // every candidate offered to top; capacity n
	nn    []Neighbor // the answer handed to fn; capacity k
	k     int

	// The small-cloud path (knnsmall.go): the cloud's coordinates, one
	// slice per axis, NaN-padded to a multiple of 16 points; one query's
	// squared distances, candidates and candidate keys by rank.
	xs, ys, zs, d2 []float64
	cand           []int32
	ranked         [groups + 1]uint64
}

var allPool = sync.Pool{New: func() any { return new(allScratch) }}

// build lays the cloud out in columns for a k-nearest pass.
//
// The column edge is √(area/n) over the xy extent — about one point per
// column on a uniform cloud, 0.27 m on a ±2 m classifier viewport —
// and at least the longer side over n, which bounds the column count by
// about 3n on flat, collinear and elongated clouds alike. A cloud with
// no xy extent is one column.
func (s *allScratch) build(cloud geom.Cloud, k int) {
	n := len(cloud)
	minX, maxX, minY, maxY := cloud[0].X, cloud[0].X, cloud[0].Y, cloud[0].Y
	for _, p := range cloud[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	wx, wy := maxX-minX, maxY-minY
	edge := max(math.Sqrt(wx*wy/float64(n)), max(wx, wy)/float64(n))
	s.minX, s.minY = minX, minY
	s.nx, s.ny, s.inv = 1, 1, 0
	if inv := 1 / edge; inv > 0 && inv <= math.MaxFloat64 {
		// nx-1 is the largest point's column, by the expression that
		// bins it, so every column index lands in [0, nx).
		s.inv = inv
		s.nx, s.ny = int(wx*inv)+1, int(wy*inv)+1
	}
	s.slack = float64(max(s.nx, s.ny)+1) * 0x1p-50
	s.e2 = (1 / s.inv) * (1 / s.inv) * (1 - 0x1p-40)

	// Counting sort into columns, stable, so each run keeps input order.
	ncol := s.nx * s.ny
	s.start = growInt32(s.start, ncol+1)
	clear(s.start)
	s.col = growInt32(s.col, n)
	for i, p := range cloud {
		c := s.column(p)
		s.col[i] = int32(c)
		s.start[c+1]++
	}
	for c := 0; c < ncol; c++ {
		s.start[c+1] += s.start[c]
	}
	s.pts = slices.Grow(s.pts[:0], n)[:n]
	for i, p := range cloud {
		c := s.col[i]
		s.pts[s.start[c]] = colPoint{p, int32(i)}
		s.start[c]++
	}
	copy(s.start[1:], s.start[:ncol])
	s.start[0] = 0
	for c := 0; c < ncol; c++ {
		run := s.pts[s.start[c]:s.start[c+1]]
		for i := 1; i < len(run); i++ {
			// Descending, or a NaN on either side.
			if !(run[i].Z >= run[i-1].Z) {
				slices.SortFunc(run, compareZIndex)
				break
			}
		}
	}

	s.k = k
	s.mask = 1<<bits.Len(uint(n-1)) - 1
	s.top = slices.Grow(s.top[:0], k)[:k]
	s.cands = slices.Grow(s.cands[:0], n)[:0]
	s.nn = slices.Grow(s.nn[:0], k)[:0]
}

// column returns p's column. The clamp only matters for non-finite
// coordinates, whose conversion to int is unspecified.
func (s *allScratch) column(p geom.Point3) int {
	cx := clampAxis(int((p.X-s.minX)*s.inv), s.nx)
	cy := clampAxis(int((p.Y-s.minY)*s.inv), s.ny)
	return cy*s.nx + cx
}

// compareZIndex orders a column's run by (z, index), a NaN z first.
func compareZIndex(a, b colPoint) int {
	if c := cmp.Compare(a.Z, b.Z); c != 0 {
		return c
	}
	return int(a.id - b.id)
}

// seed returns a first pruning bound for query q, as key bits, from the
// previous query prev and its k-th distance² kth: prev's k nearest lie
// within √kth of prev, so q's k-th nearest lies within
// |q - prev| + √kth of q. The relative margin, 2⁻⁴⁰, covers the few
// ulps the distances and this expression round by. Queries run in
// column order, z ascending, so prev is usually q's neighbor below and
// the seed a few times the true bound. With no finite seed it returns
// all ones, which prunes nothing.
func (s *allScratch) seed(prev, q geom.Point3, kth float64) uint64 {
	r := math.Sqrt(prev.Dist2(q)) + math.Sqrt(kth)
	if b := r * r * (1 + 0x1p-40); b <= math.MaxFloat64 {
		return math.Float64bits(b) | s.mask
	}
	return math.MaxUint64
}

// query returns the k nearest neighbors of pts[j], which lies in column
// (cx, cy), and whether it took the exact pass. ceil is the query's
// seeded bound (see seed).
//
// When the k-th and (k+1)-th smallest keys differ in their distance
// prefix, every one of the k smallest keys has a smaller prefix, and so
// a strictly smaller squared distance, than every point outside them:
// they are the k nearest, and only their order is left to settle, on
// the exact distances under less. When the two share a prefix, the
// boundary is decided below the dropped bits, and the point is answered
// by a pass under less over every candidate the search offered: they
// include every point whose distance has that prefix or a smaller one
// (see sweep). That happens about once per 225-point classifier input,
// mostly at duplicated points.
func (s *allScratch) query(cloud geom.Cloud, j, cx, cy int, ceil uint64) (nn []Neighbor, tie bool) {
	for t := range s.top {
		s.top[t] = math.MaxUint64
	}
	s.spill = math.MaxUint64
	// A NaN bound — all-ones bits — prunes nothing: every comparison
	// against it is false.
	s.ceil = ceil
	s.bound = math.Float64frombits(ceil)
	s.cands = s.cands[:0]
	s.search(j, cx, cy)
	k := s.k
	if (s.top[k-1]^s.spill)&^s.mask == 0 {
		s.nn = s.nn[:0]
		for _, c := range s.cands {
			s.insert(c)
		}
		return s.nn, true
	}
	q := cloud[s.pts[j].id]
	nn = s.nn[:k]
	for t := range nn {
		i := int(s.top[t] & s.mask)
		nn[t] = Neighbor{Index: i, Dist2: q.Dist2(cloud[i])}
	}
	sortNeighbors(nn)
	return nn, false
}

// search offers pts[j] every candidate that can beat the bound: its own
// column first, from its own position, then ring after ring of columns
// until a ring's lower bound passes the bound.
func (s *allScratch) search(j, cx, cy int) {
	q := s.pts[j].Point3
	c := cy*s.nx + cx
	s.sweep(q, int(s.start[c]), j, int(s.start[c+1]))

	// q's offsets inside its column, in edges: the gap to the columns
	// on its left is fx, to those on its right 1 - fx.
	fx := (q.X-s.minX)*s.inv - float64(cx)
	fy := (q.Y-s.minY)*s.inv - float64(cy)
	near := min(fx, 1-fx, fy, 1-fy)
	rings := max(cx, s.nx-1-cx, cy, s.ny-1-cy)
	for r := 1; r <= rings; r++ {
		// Every column of ring r lies at least r-1 whole columns
		// beyond q's nearest column side.
		if s.lowerBound(float64(r-1)+near, 0) > s.bound {
			return
		}
		for dy := -r; dy <= r; dy++ {
			y := cy + dy
			if y < 0 || y >= s.ny {
				continue
			}
			gy := gap(dy, fy)
			step := 2 * r // the ring's side columns: dx = ±r only
			if dy == -r || dy == r {
				step = 1
			}
			for dx := -r; dx <= r; dx += step {
				x := cx + dx
				if x < 0 || x >= s.nx {
					continue
				}
				c := y*s.nx + x
				lo, hi := int(s.start[c]), int(s.start[c+1])
				if lo == hi || s.lowerBound(gap(dx, fx), gy) > s.bound {
					continue
				}
				s.sweep(q, lo, s.zStart(lo, hi, q.Z), hi)
			}
		}
	}
}

// gap is the xy gap, in edges, between q — at offset f inside its
// column — and the column d columns away along one axis.
func gap(d int, f float64) float64 {
	switch {
	case d > 0:
		return float64(d) - f
	case d < 0:
		return float64(-d-1) + f
	}
	return 0
}

// lowerBound returns a lower bound on the computed squared distance from
// q to any point of a column gx by gy edges away from it in x and y.
//
// A column coordinate (x-minX)·inv is rounded twice, so it is off by
// at most 2 ulps of nx; slack — four times that, plus the rounding of
// the gap arithmetic — keeps the gap below the true one. The relative
// margin in e2 (2⁻⁴⁰, far above the few ulps Dist2 and this expression
// round by) keeps the bound below the computed distance, which in real
// arithmetic is at least (gx² + gy²)·edge².
func (s *allScratch) lowerBound(gx, gy float64) float64 {
	gx, gy = max(gx-s.slack, 0), max(gy-s.slack, 0)
	return (gx*gx + gy*gy) * s.e2
}

// zStart returns the first position in [lo, hi) whose z is ≥ z, or hi:
// where a sweep of that column starts. A NaN z, first in the run, counts
// as below every z; a NaN query starts at hi.
func (s *allScratch) zStart(lo, hi int, z float64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !(s.pts[m].Z >= z) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// sweep offers q the points of pts[lo:hi], a column ascending in z,
// walking up from mid and down from mid-1: every point at or above mid
// has z ≥ q.z and every point below has z ≤ q.z. So |dz| never shrinks
// along a walk, and a walk stops at the first dz² beyond the bound.
// That is exact: Dist2 adds dz² to a non-negative sum, and rounding is
// monotone, so a computed distance is never below its own dz². A NaN z
// sits at the bottom of its run, and its NaN dz² stops no walk.
//
// The bound is the largest distance sharing the k-th key's prefix, or
// the seeded bound if that is smaller (while top holds fewer than k
// keys, the k-th key is all ones). It never drops below the largest
// distance sharing the final k-th key's prefix. A candidate beyond it
// cannot enter top, nor share that prefix, so it is dropped; any other
// is kept in cands and passes through top in k branch-free min/max
// steps, and what comes out at the end is spilled.
func (s *allScratch) sweep(q geom.Point3, lo, mid, hi int) {
	pts, top, mask, ceil := s.pts[lo:hi], s.top, s.mask, s.ceil
	last := len(top) - 1
	bound, spill, cands := s.bound, s.spill, s.cands
	for t := mid - lo; t < len(pts); t++ {
		p := &pts[t]
		if dz := q.Z - p.Z; dz*dz > bound {
			break
		}
		d2 := q.Dist2(p.Point3)
		if d2 > bound {
			continue
		}
		cands = append(cands, Neighbor{Index: int(p.id), Dist2: d2})
		key := math.Float64bits(d2)&^mask | uint64(p.id)
		for u, v := range top {
			top[u], key = min(v, key), max(v, key)
		}
		spill = min(spill, key)
		bound = math.Float64frombits(min(top[last]|mask, ceil))
	}
	for t := mid - lo - 1; t >= 0; t-- {
		p := &pts[t]
		if dz := q.Z - p.Z; dz*dz > bound {
			break
		}
		d2 := q.Dist2(p.Point3)
		if d2 > bound {
			continue
		}
		cands = append(cands, Neighbor{Index: int(p.id), Dist2: d2})
		key := math.Float64bits(d2)&^mask | uint64(p.id)
		for u, v := range top {
			top[u], key = min(v, key), max(v, key)
		}
		spill = min(spill, key)
		bound = math.Float64frombits(min(top[last]|mask, ceil))
	}
	s.bound, s.spill, s.cands = bound, spill, cands
}

// insert adds c to nn, a list ascending under less, keeping the k
// smallest.
func (s *allScratch) insert(c Neighbor) {
	nn := s.nn
	if len(nn) == s.k {
		if !less(c, nn[s.k-1]) {
			return
		}
		nn = nn[:s.k-1]
	}
	i := len(nn)
	nn = append(nn, c)
	for ; i > 0 && less(c, nn[i-1]); i-- {
		nn[i] = nn[i-1]
	}
	nn[i] = c
	s.nn = nn
}
