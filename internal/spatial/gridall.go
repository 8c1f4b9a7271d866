package spatial

import (
	"sync"

	"hawccc/internal/geom"
)

// KNNAll calls fn(i, nn) once for every indexed point i, with nn its k
// nearest neighbors — element for element what KNNInto(dst, cloud[i], k)
// returns. nn is valid only during the call; the order of the calls is
// unspecified. It is the whole-cloud form of KNNInto for callers that
// want every point's neighborhood (the projection's σz channel). Like
// every other query it only reads the grid, and it draws its buffers
// from a pool, so steady-state calls do not allocate.
//
// The work is shared per cell: for each occupied cell the 3×3×3 block
// of cells around it — rings 0 and 1 of KNNInto's search — is gathered
// once, own cell first, and each of the cell's points keeps its k best
// of that block under less. KNNInto stops before ring 2 exactly when
// cell² exceeds the retained k-th distance, or when rings 0 and 1 cover
// the whole lattice, so a point whose block answer passes the same test
// has KNNInto's answer by construction. Any other point — too few or
// too far neighbors in its block, or a coordinate whose virtual cell
// is not the one it is binned in — is answered by KNNInto itself.
func (g *Grid) KNNAll(k int, fn func(i int, nn []Neighbor)) {
	g.knnAll(k, fn)
}

// knnAll is KNNAll, returning how many points fell back to KNNInto.
func (g *Grid) knnAll(k int, fn func(i int, nn []Neighbor)) (fallbacks int) {
	n := g.Len()
	if n == 0 {
		return 0
	}
	if k <= 0 {
		for i := 0; i < n; i++ {
			fn(i, nil)
		}
		return 0
	}
	if k > n {
		k = n
	}
	sc := allPool.Get().(*allScratch)
	defer allPool.Put(sc)
	if cap(sc.nn) < k {
		sc.nn = make([]Neighbor, 0, k)
	}
	nn := sc.nn
	for ix := 0; ix < g.nx; ix++ {
		x0, x1 := clampLo(ix-1), clampHi(ix+1, g.nx)
		for iy := 0; iy < g.ny; iy++ {
			y0, y1 := clampLo(iy-1), clampHi(iy+1, g.ny)
			col := (ix*g.ny + iy) * g.nz
			for iz := 0; iz < g.nz; iz++ {
				lo, hi := int(g.start[col+iz]), int(g.start[col+iz+1])
				if lo == hi {
					continue
				}
				z0, z1 := clampLo(iz-1), clampHi(iz+1, g.nz)
				// The block, nearest cells first: the own cell, the rest of
				// its column, then the other eight columns, each column's
				// z-run one contiguous CSR span. The first offers are the
				// nearest candidates, so most of the block is rejected on
				// one compare.
				sc.blk, sc.bid = sc.blk[:0], sc.bid[:0]
				sc.gather(g, lo, hi)
				sc.gather(g, int(g.start[col+z0]), lo)
				sc.gather(g, hi, int(g.start[col+z1+1]))
				for bx := x0; bx <= x1; bx++ {
					for by := y0; by <= y1; by++ {
						if bx == ix && by == iy {
							continue
						}
						bc := (bx*g.ny + by) * g.nz
						sc.gather(g, int(g.start[bc+z0]), int(g.start[bc+z1+1]))
					}
				}
				// KNNInto's maxRing ≤ 1: rings 0 and 1 are every cell.
				whole := ix <= 1 && ix >= g.nx-2 && iy <= 1 && iy >= g.ny-2 && iz <= 1 && iz >= g.nz-2
				blk, bid := sc.blk, sc.bid
				for j := 0; j < hi-lo; j++ {
					q := blk[j]
					if g.virtualCell(q) == [3]int{ix, iy, iz} {
						nn = nearest(nn, q, blk, bid, k)
						if whole || len(nn) == k && g.cell > 0 && g.cell*g.cell > nn[k-1].Dist2 {
							fn(int(bid[j]), nn)
							continue
						}
					}
					fallbacks++
					fn(int(bid[j]), g.KNNInto(nn, q, k))
				}
			}
		}
	}
	return fallbacks
}

// allScratch holds one KNNAll call's buffers: the gathered block, its
// point indices, and the neighbor list handed to fn. They are pooled, so
// a caller making one pass per classified cluster does not allocate once
// the buffers have grown.
type allScratch struct {
	blk []geom.Point3
	bid []int32
	nn  []Neighbor
}

var allPool = sync.Pool{New: func() any { return new(allScratch) }}

// virtualCell is the unclamped cell KNNInto centers its rings on for q.
func (g *Grid) virtualCell(q geom.Point3) [3]int {
	return [3]int{
		ifloor((q.X - g.min.X) * g.inv),
		ifloor((q.Y - g.min.Y) * g.inv),
		ifloor((q.Z - g.min.Z) * g.inv),
	}
}

// gather appends the points of CSR range [lo, hi) of g, and their
// indices, to the block.
func (sc *allScratch) gather(g *Grid, lo, hi int) {
	for _, id := range g.ids[lo:hi] {
		sc.blk = append(sc.blk, g.pts[id])
		sc.bid = append(sc.bid, id)
	}
}

// nearest returns in dst[:0] the k smallest of the block's candidates
// for q under less, ascending: a sorted insertion list, so a candidate
// farther than the current k-th costs one distance and one compare.
func nearest(dst []Neighbor, q geom.Point3, blk []geom.Point3, bid []int32, k int) []Neighbor {
	dst = dst[:0]
	bid = bid[:len(blk)]
	for j, p := range blk {
		c := Neighbor{Index: int(bid[j]), Dist2: q.Dist2(p)}
		if len(dst) == k {
			if !less(c, dst[k-1]) {
				continue
			}
			dst = dst[:k-1]
		}
		i := len(dst)
		dst = append(dst, c)
		for ; i > 0 && less(c, dst[i-1]); i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = c
	}
	return dst
}
