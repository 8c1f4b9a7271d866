package spatial

import (
	"fmt"

	"hawccc/internal/geom"
)

// maxGridCells bounds the voxel count of one grid. A pathologically
// spread cloud (a few returns kilometers apart) would otherwise demand an
// enormous cell array for no query benefit; Reset doubles the cell edge
// until the grid fits, which keeps build cost O(n + cells) with cells
// bounded, at the price of scanning slightly larger candidate sets on
// such degenerate scenes.
const maxGridCells = 1 << 18

// Grid is a uniform voxel grid over a point cloud for fixed-radius
// queries: with cell edge ≈ r a radius query visits at most 27 cells.
// It counts radius neighbours only; every k-nearest list comes from
// KNNAll. In the running system only DA's density counts query it
// (through FrameIndex). The zero value is an empty grid for which every
// count is zero; Reset builds it, and rebuilds it in place reusing the
// internal arrays (the one-build-per-frame path).
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
}

// Reset rebuilds the grid over cloud in place, reusing the internal
// arrays so a steady-state caller rebuilding once per frame stops
// allocating once the arrays have grown to the traffic. cell is the
// voxel edge and must be positive: every caller bins at a fixed query
// radius. The grid references cloud; the caller must not mutate it while
// the grid is in use.
func (g *Grid) Reset(cloud geom.Cloud, cell float64) {
	if !(cell > 0) {
		panic(fmt.Sprintf("spatial: grid cell edge %v, want > 0", cell))
	}
	g.pts = cloud
	n := len(cloud)
	if n == 0 {
		g.clear()
		return
	}
	b := cloud.Bounds()
	ncells := g.sizeLattice(b, cell, n)
	for i, p := range cloud {
		c := g.cellIndex(p)
		g.cellOf[i] = c
		g.start[c+1]++
	}
	g.finishBuild(n, ncells)
}

// clear empties the grid (the n == 0 build).
func (g *Grid) clear() {
	g.nx, g.ny, g.nz = 0, 0, 0
	g.ids = g.ids[:0]
}

// sizeLattice fits the cell lattice to bounds b within the cell budget
// and prepares the CSR arrays for a build over n points, returning the
// cell count. start comes back zeroed for the counting pass.
func (g *Grid) sizeLattice(b geom.Box, cell float64, n int) int {
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
// point's cell).
//
// Counting-sort into CSR layout: prefix-sum the counts into begin
// offsets, scatter (advancing each begin), then shift the offsets right
// one slot to restore begins.
func (g *Grid) finishBuild(n, ncells int) {
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
