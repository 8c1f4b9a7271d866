package spatial

import (
	"math"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// maxGridCells bounds the voxel count of one grid. A pathologically
// spread cloud (a few returns kilometers apart) would otherwise demand an
// enormous cell array for no query benefit; Reset doubles the cell edge
// until the grid fits, which keeps build cost O(n + cells) with cells
// bounded, at the price of scanning slightly larger candidate sets on
// such degenerate scenes.
const maxGridCells = 1 << 18

// Grid is a uniform voxel grid over a point cloud, tuned for the
// fixed-radius region queries DBSCAN issues: with cell edge ≈ ε a radius
// query visits at most 27 cells. The zero value is an empty grid for
// which every query returns no results; use NewGrid, or Reset to rebuild
// in place reusing the internal arrays (the one-build-per-frame path).
//
// On hardware with usable AVX the grid also keeps a float32 mirror of
// the coordinates in CSR order and runs radius and kNN scans through the
// internal/geom/kernels vector primitives. The float32 lanes are only a
// prefilter: candidates whose float32 squared distance falls inside an
// analytically bounded uncertainty band around the decision threshold
// are re-checked in float64 against the source coordinates, so vector
// and scalar paths return bit-identical results (see gridvec.go).
//
// The grid references the cloud instead of copying it: it is a
// per-frame index, valid only while the indexed cloud is unchanged.
// Queries are read-only and safe for concurrent use.
type Grid struct {
	pts        geom.Cloud
	cell, inv  float64
	min        geom.Point3
	nx, ny, nz int
	// CSR cell layout: ids holds all point indices grouped by cell;
	// cell c owns ids[start[c]:start[c+1]].
	start []int32
	ids   []int32
	// cellOf is build scratch: the cell id of each point.
	cellOf []int32
	// Vectorized-scan state: float32 coordinates in CSR (ids) order, so
	// each cell — and each contiguous run of z-cells — is one dense span
	// for the 8-wide kernels. maxAbs bounds every coordinate magnitude
	// for the float32 error analysis; vec records whether this build may
	// use the vector path at all.
	gx, gy, gz []float32
	maxAbs     float64
	vec        bool
}

// NewGrid builds a grid over cloud with the given cell edge length.
// cell <= 0 selects AutoCell's kNN-oriented default.
func NewGrid(cloud geom.Cloud, cell float64) *Grid {
	g := &Grid{}
	g.Reset(cloud, cell)
	return g
}

// Reset rebuilds the grid over cloud in place, reusing the internal
// arrays so a steady-state caller rebuilding once per frame stops
// allocating once the arrays have grown to the traffic. cell <= 0
// selects AutoCell's default. The grid references cloud; the caller must
// not mutate it while the grid is in use.
func (g *Grid) Reset(cloud geom.Cloud, cell float64) {
	g.pts = cloud
	n := len(cloud)
	if n == 0 {
		g.clear()
		return
	}
	b := cloud.Bounds()
	if cell <= 0 {
		cell = autoCellSized(b.Size(), n, 8)
	}
	ncells := g.sizeLattice(b, cell, n)
	for i, p := range cloud {
		c := g.cellIndex(p)
		g.cellOf[i] = c
		g.start[c+1]++
	}
	g.finishBuild(n, ncells, b)
}

// clear empties the grid (the n == 0 build).
func (g *Grid) clear() {
	g.nx, g.ny, g.nz = 0, 0, 0
	g.ids = g.ids[:0]
	g.vec = false
}

// sizeLattice fits the cell lattice to bounds b within the cell budget
// and prepares the CSR arrays for a build over n points, returning the
// cell count. start comes back zeroed for the counting pass.
func (g *Grid) sizeLattice(b geom.Box, cell float64, n int) int {
	// A grid that will scan with the 8-wide kernels bins coarser: the
	// prefilter discards excess candidates far cheaper than the scalar
	// path computes exact distances, so longer contiguous spans beat
	// tighter cells. Queries are exact for any bin width — this moves
	// work between span setup and candidate filtering, never results.
	if kernels.Vectorized() && boxMaxAbs(b) < maxVecCoord {
		cell *= vecCellScale
	}
	g.min = b.Min
	size := b.Size()
	// Size the lattice, growing the cell edge until it fits the budget.
	for {
		inv := 1 / cell
		g.nx = int(size.X*inv) + 1
		g.ny = int(size.Y*inv) + 1
		g.nz = int(size.Z*inv) + 1
		if int64(g.nx)*int64(g.ny)*int64(g.nz) <= maxGridCells {
			g.cell, g.inv = cell, inv
			break
		}
		cell *= 2
	}
	ncells := g.nx * g.ny * g.nz

	g.start = growInt32(g.start, ncells+1)
	for i := range g.start {
		g.start[i] = 0
	}
	g.ids = growInt32(g.ids, n)
	g.cellOf = growInt32(g.cellOf, n)
	return ncells
}

// finishBuild completes the counting sort started by the caller's
// binning pass (start[c+1] holds cell c's population, cellOf each
// point's cell) and refreshes the vectorized-scan state.
//
// Counting-sort into CSR layout: prefix-sum the counts into begin
// offsets, scatter (advancing each begin), then shift the offsets right
// one slot to restore begins.
func (g *Grid) finishBuild(n, ncells int, b geom.Box) {
	for c := 0; c < ncells; c++ {
		g.start[c+1] += g.start[c]
	}
	// After this scatter loop start[c] holds the END of cell c.
	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		g.ids[g.start[c]] = int32(i)
		g.start[c]++
	}
	copy(g.start[1:ncells+1], g.start[:ncells])
	g.start[0] = 0

	g.refreshVec(n, b)
}

// growInt32 returns s resized to n, reallocating only when capacity is
// insufficient.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Len returns the number of indexed points.
func (g *Grid) Len() int {
	if g == nil {
		return 0
	}
	return len(g.pts)
}

// Cell returns the cell edge the grid was built with (after any budget
// doubling), or 0 for an empty grid.
func (g *Grid) Cell() float64 {
	if g.Len() == 0 {
		return 0
	}
	return g.cell
}

// cellIndex maps a point inside the grid's bounds to its cell id.
func (g *Grid) cellIndex(p geom.Point3) int32 {
	ix := clampAxis(int((p.X-g.min.X)*g.inv), g.nx)
	iy := clampAxis(int((p.Y-g.min.Y)*g.inv), g.ny)
	iz := clampAxis(int((p.Z-g.min.Z)*g.inv), g.nz)
	return int32((ix*g.ny+iy)*g.nz + iz)
}

// clampAxis bounds a cell coordinate to [0, n-1]; points sit inside the
// bounds by construction, but float rounding at the max face can land on
// index n.
func clampAxis(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// ifloor is floor(x) as an int (int() truncates toward zero, which is
// wrong for the negative offsets of queries outside the grid bounds).
func ifloor(x float64) int {
	i := int(x)
	if float64(i) > x {
		i--
	}
	return i
}

// axisRange returns the clamped cell range [lo, hi] covering
// [rel-r, rel+r] on an axis with n cells, where rel is the query
// coordinate relative to the grid minimum. ok is false when the interval
// misses the grid entirely.
func (g *Grid) axisRange(rel, r float64, n int) (lo, hi int, ok bool) {
	lo = ifloor((rel - r) * g.inv)
	hi = ifloor((rel + r) * g.inv)
	if hi < 0 || lo >= n {
		return 0, 0, false
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	return lo, hi, true
}

// Radius returns the indices of all points within radius r of q
// (inclusive). The result order is unspecified.
func (g *Grid) Radius(q geom.Point3, r float64) []int {
	if g.Len() == 0 || r < 0 {
		return nil
	}
	return g.RadiusInto(nil, q, r)
}

// RadiusInto appends the indices of all points within radius r of q
// (inclusive) to dst and returns the extended slice. With cell ≈ r this
// is a 27-cell scan; larger radii scan proportionally more cells.
func (g *Grid) RadiusInto(dst []int, q geom.Point3, r float64) []int {
	if g.Len() == 0 || r < 0 {
		return dst
	}
	ix0, ix1, ok := g.axisRange(q.X-g.min.X, r, g.nx)
	if !ok {
		return dst
	}
	iy0, iy1, ok := g.axisRange(q.Y-g.min.Y, r, g.ny)
	if !ok {
		return dst
	}
	iz0, iz1, ok := g.axisRange(q.Z-g.min.Z, r, g.nz)
	if !ok {
		return dst
	}
	r2 := r * r
	if g.vec {
		return g.radiusVec(dst, q, r2, ix0, ix1, iy0, iy1, iz0, iz1)
	}
	for ix := ix0; ix <= ix1; ix++ {
		for iy := iy0; iy <= iy1; iy++ {
			row := (ix*g.ny + iy) * g.nz
			for iz := iz0; iz <= iz1; iz++ {
				c := row + iz
				for _, id := range g.ids[g.start[c]:g.start[c+1]] {
					if q.Dist2(g.pts[id]) <= r2 {
						dst = append(dst, int(id))
					}
				}
			}
		}
	}
	return dst
}

// RadiusCount returns the number of points within radius r of q without
// materializing them.
func (g *Grid) RadiusCount(q geom.Point3, r float64) int {
	if g.Len() == 0 || r < 0 {
		return 0
	}
	ix0, ix1, ok := g.axisRange(q.X-g.min.X, r, g.nx)
	if !ok {
		return 0
	}
	iy0, iy1, ok := g.axisRange(q.Y-g.min.Y, r, g.ny)
	if !ok {
		return 0
	}
	iz0, iz1, ok := g.axisRange(q.Z-g.min.Z, r, g.nz)
	if !ok {
		return 0
	}
	r2 := r * r
	if g.vec {
		return g.radiusCountVec(q, r2, ix0, ix1, iy0, iy1, iz0, iz1)
	}
	count := 0
	for ix := ix0; ix <= ix1; ix++ {
		for iy := iy0; iy <= iy1; iy++ {
			row := (ix*g.ny + iy) * g.nz
			for iz := iz0; iz <= iz1; iz++ {
				c := row + iz
				for _, id := range g.ids[g.start[c]:g.start[c+1]] {
					if q.Dist2(g.pts[id]) <= r2 {
						count++
					}
				}
			}
		}
	}
	return count
}

// KNN returns the k nearest neighbors of q in ascending (Dist2, Index)
// order; see NeighborIndex for the exact contract.
func (g *Grid) KNN(q geom.Point3, k int) []Neighbor {
	if g.Len() == 0 || k <= 0 {
		return nil
	}
	return g.KNNInto(nil, q, k)
}

// KNNInto is KNN reusing dst's backing array (the Into convention). The
// search expands Chebyshev rings of cells around the query's cell,
// stopping once the retained k-th distance beats the next ring's lower
// bound, with an exact cell-box distance prune inside each ring.
func (g *Grid) KNNInto(dst []Neighbor, q geom.Point3, k int) []Neighbor {
	dst = dst[:0]
	n := g.Len()
	if n == 0 || k <= 0 {
		return dst
	}
	if k > n {
		k = n
	}
	// The query's (virtual) cell coordinates — intentionally unclamped,
	// so rings stay centered on q even when q lies outside the bounds.
	qx := ifloor((q.X - g.min.X) * g.inv)
	qy := ifloor((q.Y - g.min.Y) * g.inv)
	qz := ifloor((q.Z - g.min.Z) * g.inv)
	maxRing := maxInt6(qx, g.nx-1-qx, qy, g.ny-1-qy, qz, g.nz-1-qz)

	s := knnScan{g: g, q: q, k: k, items: dst, topCache: math.NaN()}
	for d := 0; d <= maxRing; d++ {
		if len(s.items) >= k {
			// Any point in a cell at Chebyshev ring d lies at least
			// (d-1)·cell from q (q sits somewhere inside its own cell).
			lb := float64(d-1) * g.cell
			if lb > 0 && lb*lb > s.items[0].Dist2 {
				break
			}
		}
		s.ring(qx, qy, qz, d)
	}
	sortNeighbors(s.items)
	return s.items
}

// maxInt6 returns the maximum of six ints (and at least 0).
func maxInt6(a, b, c, d, e, f int) int {
	m := 0
	for _, v := range [6]int{a, b, c, d, e, f} {
		if v > m {
			m = v
		}
	}
	return m
}

// knnScan carries one KNNInto search: the bounded max-heap of retained
// neighbors (ordered by less, so ties resolve to the lower index)
// plus the query geometry. It lives on the caller's stack.
type knnScan struct {
	g     *Grid
	q     geom.Point3
	k     int
	items []Neighbor
	// topCache/hiFCache memoize filterBounds for the current heap-top
	// distance: the top only changes when an offer lands, so most cells
	// reuse the previous prefilter threshold. topCache starts NaN so the
	// first full-heap cell always computes (a real top can be 0.0 on
	// duplicate points).
	topCache float64
	hiFCache float32
	// dbuf holds one chunk of float32 squared distances for the
	// vectorized cell prefilter; declared here (not in cellVec) so it is
	// zeroed once per search, not once per cell.
	dbuf [vecChunk]float32
}

// ring scans every in-bounds cell at exactly Chebyshev distance d from
// the (possibly virtual) center cell, decomposed into the six faces of
// the shell cube so each cell is visited once.
func (s *knnScan) ring(qx, qy, qz, d int) {
	g := s.g
	if d == 0 {
		if qx >= 0 && qx < g.nx && qy >= 0 && qy < g.ny && qz >= 0 && qz < g.nz {
			s.cell(qx, qy, qz)
		}
		return
	}
	y0, y1 := clampLo(qy-d), clampHi(qy+d, g.ny)
	z0, z1 := clampLo(qz-d), clampHi(qz+d, g.nz)
	// x faces: full y,z square.
	for _, ix := range [2]int{qx - d, qx + d} {
		if ix < 0 || ix >= g.nx {
			continue
		}
		for iy := y0; iy <= y1; iy++ {
			for iz := z0; iz <= z1; iz++ {
				s.cell(ix, iy, iz)
			}
		}
	}
	xi0, xi1 := clampLo(qx-d+1), clampHi(qx+d-1, g.nx)
	// y faces: x interior, full z range.
	for _, iy := range [2]int{qy - d, qy + d} {
		if iy < 0 || iy >= g.ny {
			continue
		}
		for ix := xi0; ix <= xi1; ix++ {
			for iz := z0; iz <= z1; iz++ {
				s.cell(ix, iy, iz)
			}
		}
	}
	yi0, yi1 := clampLo(qy-d+1), clampHi(qy+d-1, g.ny)
	// z faces: x and y interior.
	for _, iz := range [2]int{qz - d, qz + d} {
		if iz < 0 || iz >= g.nz {
			continue
		}
		for ix := xi0; ix <= xi1; ix++ {
			for iy := yi0; iy <= yi1; iy++ {
				s.cell(ix, iy, iz)
			}
		}
	}
}

func clampLo(i int) int {
	if i < 0 {
		return 0
	}
	return i
}

func clampHi(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

// cell offers every point of cell (ix, iy, iz) to the heap, after an
// exact box-distance prune once the heap is full. Once the heap is full
// a vectorized grid prefilters the cell against the retained k-th
// distance (see knnScan.cellVec); before that every candidate needs its
// exact distance anyway, so the scan stays scalar.
func (s *knnScan) cell(ix, iy, iz int) {
	g := s.g
	c := (ix*g.ny+iy)*g.nz + iz
	lo, hi := g.start[c], g.start[c+1]
	if lo == hi {
		return
	}
	if len(s.items) >= s.k {
		if g.cellDist2(s.q, ix, iy, iz) > s.items[0].Dist2 {
			return
		}
		if g.vec {
			s.cellVec(int(lo), int(hi))
			return
		}
	} else if g.vec {
		// Fill the heap scalar, handing the rest of the cell to the
		// vector prefilter the moment it fills: a dense seed cell (the
		// common first cell of an ε-curve query) would otherwise pay an
		// exact distance and heap offer for every candidate.
		for o := int(lo); o < int(hi); o++ {
			if len(s.items) >= s.k {
				s.cellVec(o, int(hi))
				return
			}
			id := g.ids[o]
			s.offer(Neighbor{Index: int(id), Dist2: s.q.Dist2(g.pts[id])})
		}
		return
	}
	for _, id := range g.ids[lo:hi] {
		s.offer(Neighbor{Index: int(id), Dist2: s.q.Dist2(g.pts[id])})
	}
}

// cellDist2 returns the squared distance from q to the nearest point of
// the cell box (zero when q is inside it).
func (g *Grid) cellDist2(q geom.Point3, ix, iy, iz int) float64 {
	var d2 float64
	if d := axisDist(q.X-g.min.X, ix, g.cell); d > 0 {
		d2 += d * d
	}
	if d := axisDist(q.Y-g.min.Y, iy, g.cell); d > 0 {
		d2 += d * d
	}
	if d := axisDist(q.Z-g.min.Z, iz, g.cell); d > 0 {
		d2 += d * d
	}
	return d2
}

// axisDist is the 1D distance from coordinate rel to the interval
// [i·cell, (i+1)·cell], or ≤ 0 when rel is inside it.
func axisDist(rel float64, i int, cell float64) float64 {
	lo := float64(i) * cell
	if rel < lo {
		return lo - rel
	}
	if hi := lo + cell; rel > hi {
		return rel - hi
	}
	return 0
}

// offer pushes a candidate into the bounded max-heap (ordered by
// less over (Dist2, Index)), keeping the k smallest.
func (s *knnScan) offer(n Neighbor) {
	items := s.items
	if len(items) < s.k {
		items = append(items, n)
		i := len(items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !less(items[parent], items[i]) {
				break
			}
			items[parent], items[i] = items[i], items[parent]
			i = parent
		}
		s.items = items
		return
	}
	if !less(n, items[0]) {
		return
	}
	items[0] = n
	i, size := 0, len(items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < size && less(items[largest], items[l]) {
			largest = l
		}
		if r < size && less(items[largest], items[r]) {
			largest = r
		}
		if largest == i {
			break
		}
		items[i], items[largest] = items[largest], items[i]
		i = largest
	}
}
