package cluster

import (
	"math"
	"math/bits"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// maxLatticeCells bounds the cell count of a graph's lattice: a cloud
// spread far wider than its radius (a few returns kilometres apart)
// gets coarser cells instead of an enormous cell array. Coarser cells
// only add candidate pairs; the graph stays exact.
const maxLatticeCells = 1 << 18

// latticeSlack widens the cells a hair past the graph radius, so two
// points within the radius land in the same or adjacent cells whatever
// the rounding of their binning and of their distance.
const latticeSlack = 1 + 1.0/(1<<20)

// forward lists the (dx, dy) of the four cell columns a column pairs
// with in the half stencil; with the column's own next cell (dz = +1)
// these are the 13 neighbours that follow a cell in lattice order.
// backward mirrors them: the 13 that precede it.
var (
	forward  = [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	backward = [4][2]int{{0, -1}, {-1, 1}, {-1, 0}, {-1, -1}}
)

// graph is one frame's neighbour graph: every unordered pair of finite
// points within radius of each other, found by one half-stencil sweep
// and stored in both directions as a CSR adjacency of neighbour slots
// and their squared distances, geom.Point3.Dist2's bits. Every answer
// of the cluster stage at a radius up to the graph's — the k-distance
// curve's band, core flags, components and border labels — is read
// from it (see label and kBand).
//
// Points live in slots, the cloud's finite points in lattice order. A
// non-finite point has no slot: its distance to anything is NaN or
// +Inf, never within a radius, so it has no neighbour, not even
// itself, and is always noise.
type graph struct {
	radius float64

	// slot[i] is cloud point i's slot, or -1; point[s] is slot s's
	// cloud index; xs, ys, zs its coordinates, padded for the kernels.
	slot       []int32
	point      []int32
	xs, ys, zs []float64

	// The cell lattice: cell c holds slots [cellStart[c], cellStart[c+1]);
	// cellOf is each cloud point's cell while building.
	cellStart  []int32
	cellOf     []int32
	nx, ny, nz int

	// The adjacency: slot s's row is [start[s], end[s]) of nbr and dist:
	// first its neighbours in lower slots, then from split[s] on the
	// ones in higher slots, its forward half. Each row is followed by
	// kernels.PairPad unused slots the fill may write into.
	start, split, end []int64
	nbr               []int32
	dist              []float64

	// label's working arrays: which distances are within its ε, and per
	// slot the core flag, union-find parent and cluster id.
	within []uint64
	core   []bool
	parent []int32
	id     []int32
	// kBand's k smallest mid-band distances of one row.
	top []float64
}

// build makes g the neighbour graph of cloud at radius: the count
// sweep sizes every row by its degree, then the fill sweep writes each
// cell's rows in place, no pair appended or moved. Every array is
// reused, so a steady-state rebuild per frame allocates nothing once
// they have grown.
func (g *graph) build(cloud geom.Cloud, radius float64) {
	g.radius = radius
	g.slot = grow(g.slot, len(cloud))
	g.cellOf = grow(g.cellOf, len(cloud))
	b := geom.EmptyBox()
	m := 0
	for i, p := range cloud {
		g.slot[i] = -1
		if !finite(p) {
			continue
		}
		g.slot[i] = 0
		m++
		if m == 1 {
			b = geom.Box{Min: p, Max: p}
			continue
		}
		b.Min.X, b.Max.X = min(b.Min.X, p.X), max(b.Max.X, p.X)
		b.Min.Y, b.Max.Y = min(b.Min.Y, p.Y), max(b.Max.Y, p.Y)
		b.Min.Z, b.Max.Z = min(b.Min.Z, p.Z), max(b.Max.Z, p.Z)
	}
	inv := g.sizeLattice(b, radius)
	ncells := g.nx * g.ny * g.nz
	g.cellStart = grow(g.cellStart, ncells+1)
	clear(g.cellStart)
	for i, p := range cloud {
		if g.slot[i] < 0 {
			continue
		}
		c := int32((axisCell(p.X-b.Min.X, inv, g.nx)*g.ny+axisCell(p.Y-b.Min.Y, inv, g.ny))*g.nz +
			axisCell(p.Z-b.Min.Z, inv, g.nz))
		g.cellOf[i] = c
		g.cellStart[c+1]++
	}
	for c := 0; c < ncells; c++ {
		g.cellStart[c+1] += g.cellStart[c]
	}

	// Counting sort into slots; cellStart[c] runs to c's end, then
	// shifts back to its start.
	g.point = grow(g.point, m)
	pad := m + kernels.PairPad
	g.xs, g.ys, g.zs = grow(g.xs, pad), grow(g.ys, pad), grow(g.zs, pad)
	for i, p := range cloud {
		if g.slot[i] < 0 {
			continue
		}
		c := g.cellOf[i]
		s := g.cellStart[c]
		g.cellStart[c]++
		g.slot[i], g.point[s] = s, int32(i)
		g.xs[s], g.ys[s], g.zs[s] = p.X, p.Y, p.Z
	}
	copy(g.cellStart[1:], g.cellStart[:ncells])
	g.cellStart[0] = 0

	// The count sweep leaves each slot's forward pair count in end and
	// backward count in split; the rows are laid out from them, and the
	// fill sweep writes each row, backward half then forward half.
	g.start, g.split, g.end = grow(g.start, pad), grow(g.split, pad), grow(g.end, pad)
	clear(g.split)
	clear(g.end)
	g.sweep(false)
	total := int64(0)
	for s := range m {
		fwd, back := g.end[s], g.split[s]
		g.start[s], g.split[s], g.end[s] = total, total+back, total
		total += back + fwd + kernels.PairPad
	}
	g.nbr, g.dist = grow(g.nbr, int(total)), grow(g.dist, int(total))
	g.sweep(true)
}

// finite reports whether every coordinate of p is finite.
func finite(p geom.Point3) bool {
	return !math.IsNaN(p.X-p.X) && !math.IsNaN(p.Y-p.Y) && !math.IsNaN(p.Z-p.Z)
}

// sizeLattice fits the lattice to the finite points' bounds b with
// cells of at least radius (times latticeSlack) and returns the inverse
// cell edge; the cells double until they fit maxLatticeCells. An empty b
// leaves a one-cell lattice.
func (g *graph) sizeLattice(b geom.Box, radius float64) (inv float64) {
	g.nx, g.ny, g.nz = 1, 1, 1
	if b.IsEmpty() {
		return 0
	}
	cell := radius * latticeSlack
	if !(cell > 0) {
		cell = 1 // radius 0: any cell holds the pairs at distance 0
	}
	size := b.Size()
	for !math.IsInf(cell, 1) {
		inv = 1 / cell
		fx, fy, fz := math.Floor(size.X*inv)+1, math.Floor(size.Y*inv)+1, math.Floor(size.Z*inv)+1
		if fx*fy*fz <= maxLatticeCells {
			g.nx, g.ny, g.nz = int(fx), int(fy), int(fz)
			return inv
		}
		cell *= 2
	}
	return 0
}

// axisCell is the lattice coordinate of an offset from the bounds'
// minimum, clamped into [0, n): the float rounding at the maximum face
// can land on n, and a zero inverse edge makes the offset's product NaN
// when the offset is +Inf.
func axisCell(off, inv float64, n int) int {
	f := off * inv
	if !(f >= 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// sweep visits every occupied cell's half stencil: the cell with
// itself and its column's next cell, then the three-cell runs of the
// four forward columns — each a contiguous slot span. Counting, it
// counts the pairs of each; filling, it writes the cell's rows: the
// lower pairs of the mirrored spans, then the forward pairs.
func (g *graph) sweep(fill bool) {
	r2 := g.radius * g.radius
	for s := 0; s < len(g.point); {
		c := int(g.cellOf[g.point[s]])
		a0, a1 := int(g.cellStart[c]), int(g.cellStart[c+1])
		s = a1
		if !fill {
			for _, sp := range g.spans(c, false) {
				if sp[0] < sp[1] {
					kernels.PairCount(g.end, g.split, g.xs, g.ys, g.zs, a0, a1, int(sp[0]), int(sp[1]), r2)
				}
			}
			continue
		}
		for _, lower := range []bool{true, false} {
			for _, sp := range g.spans(c, lower) {
				if sp[0] < sp[1] {
					kernels.PairFill(g.end, g.nbr, g.dist, g.xs, g.ys, g.zs, a0, a1, int(sp[0]), int(sp[1]), r2, lower)
				}
			}
		}
	}
}

// spans returns the slot spans of cell c's half stencil, forward or,
// with lower, backward; a cell missing from the lattice is an empty
// span. The first span holds the cell itself and its column's next (or
// previous) cell.
func (g *graph) spans(c int, lower bool) (sp [5][2]int32) {
	nx, ny, nz, start := g.nx, g.ny, g.nz, g.cellStart
	ix, iy, iz := c/(ny*nz), c/nz%ny, c%nz
	cols, dz := forward, 1
	if lower {
		cols, dz = backward, -1
	}
	sp[0] = [2]int32{start[c], start[c+1]}
	if z := iz + dz; z >= 0 && z < nz {
		sp[0] = [2]int32{start[min(c, c+dz)], start[max(c, c+dz)+1]}
	}
	zlo, zhi := max(iz-1, 0), min(iz+1, nz-1)
	for k, d := range cols {
		jx, jy := ix+d[0], iy+d[1]
		if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
			continue
		}
		col := (jx*ny + jy) * nz
		sp[k+1] = [2]int32{start[col+zlo], start[col+zhi+1]}
	}
	return sp
}

// row returns slot s's neighbour slots and their squared distances.
func (g *graph) row(s int) ([]int32, []float64) {
	return g.nbr[g.start[s]:g.end[s]], g.dist[g.start[s]:g.end[s]]
}

// label writes DBSCAN's labels at eps ≤ g.radius into labels (one per
// cloud point) and returns the cluster count. A slot is core when at
// least minPts points — itself included — lie within eps; clusters are
// the connected components of core slots under edges within eps,
// joined by union-find and numbered in the order of their least core
// cloud index; a non-core point within eps of a core one takes the
// least id among its core neighbours, and the rest are noise.
//
// These are exactly the labels of the breadth-first expansion over any
// radius index (expand, kept as the tests' oracle): it seeds clusters
// in ascending cloud order, and a seed starts a cluster only if it is
// an unvisited core point, which is the least core index of a component
// not yet expanded; the expansion visits that whole component, and a
// border point keeps the id of the first expansion to reach it, the
// least id among its core neighbours' components. Neither depends on
// the order neighbours are listed in.
func (g *graph) label(labels []int, eps float64, minPts int) int {
	for i := range labels {
		labels[i] = Noise
	}
	if !(eps >= 0) {
		return 0
	}
	m := len(g.point)
	g.within = grow(g.within, (len(g.dist)+63)/64)
	kernels.MaskLE(g.within, g.dist, eps*eps)
	g.core, g.parent, g.id = grow(g.core, m), grow(g.parent, m), grow(g.id, m)
	within, core, parent, id := g.within, g.core, g.parent, g.id
	for s := range m {
		core[s] = 1+ones(within, g.start[s], g.end[s]) >= minPts
		parent[s] = int32(s)
		id[s] = -1
	}
	for s := range m {
		if !core[s] {
			continue
		}
		root := find(parent, int32(s))
		lo, hi := g.split[s], g.end[s]
		for w := lo >> 6; w<<6 < hi; w++ {
			for b := word(within, w, lo, hi); b != 0; b &= b - 1 {
				t := g.nbr[w<<6+int64(bits.TrailingZeros64(b))]
				if !core[t] || parent[t] == root {
					continue
				}
				if r := find(parent, t); r < root {
					parent[root], root = r, r
				} else if r > root {
					parent[r] = root
				}
			}
		}
	}
	n := int32(0)
	for i, s := range g.slot {
		if s < 0 || !core[s] {
			continue
		}
		r := find(parent, s)
		if id[r] < 0 {
			id[r] = n
			n++
		}
		id[s] = id[r]
		labels[i] = int(id[r])
	}
	for i, s := range g.slot {
		if s < 0 || core[s] {
			continue
		}
		best := int32(-1)
		lo, hi := g.start[s], g.end[s]
		for w := lo >> 6; w<<6 < hi; w++ {
			for b := word(within, w, lo, hi); b != 0; b &= b - 1 {
				if t := g.nbr[w<<6+int64(bits.TrailingZeros64(b))]; core[t] && (best < 0 || id[t] < best) {
					best = id[t]
				}
			}
		}
		labels[i] = int(best)
	}
	return int(n)
}

// find returns s's root, halving the path on the way.
func find(parent []int32, s int32) int32 {
	for parent[s] != s {
		parent[s] = parent[parent[s]]
		s = parent[s]
	}
	return s
}

// ones counts the set bits of w in [lo, hi).
func ones(w []uint64, lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	a, b := lo>>6, (hi-1)>>6
	first := w[a] &^ (1<<(lo&63) - 1)
	last := ^uint64(0) >> (63 - (hi-1)&63)
	if a == b {
		return bits.OnesCount64(first & last)
	}
	n := bits.OnesCount64(first) + bits.OnesCount64(w[b]&last)
	for _, v := range w[a+1 : b] {
		n += bits.OnesCount64(v)
	}
	return n
}

// word returns word w of the bit set, keeping only the bits in [lo, hi).
func word(set []uint64, w, lo, hi int64) uint64 {
	b := set[w]
	if w == lo>>6 {
		b &^= 1<<(lo&63) - 1
	}
	if w == (hi-1)>>6 {
		b &= ^uint64(0) >> (63 - (hi-1)&63)
	}
	return b
}

// kBand appends to dst the k-distances in [lo, hi) — every slot's
// distance to its k-th nearest other point, the curve KDistanceCurve
// sorts — and returns it unsorted. hi must be at most g.radius. A
// slot's k-th distance is the k-th smallest of its row when the row
// has k entries; with fewer, the k-th nearest lies past the graph
// radius, so past hi. The exact value is only needed inside the band:
// a row with k entries below lo is only counted, by one vector compare
// of every distance.
func (g *graph) kBand(dst []float64, k int, lo, hi float64) []float64 {
	tLo, tHi := sqrtBelow(lo), sqrtBelow(hi)
	g.top = grow(g.top, k)
	top := g.top
	g.within = grow(g.within, (len(g.dist)+63)/64)
	kernels.MaskLE(g.within, g.dist, tLo)
	for s := range g.point {
		_, d := g.row(s)
		low := ones(g.within, g.start[s], g.end[s])
		if len(d) < k || low >= k {
			continue
		}
		// The (k-low)-th smallest of the row's distances in (tLo, tHi]:
		// insertion into the n smallest so far.
		want, n := k-low, 0
		for _, v := range d {
			if v <= tLo || v > tHi {
				continue
			}
			j := n
			if n < want {
				n++
			} else if v >= top[want-1] {
				continue
			} else {
				j = want - 1
			}
			for ; j > 0 && top[j-1] > v; j-- {
				top[j] = top[j-1]
			}
			top[j] = v
		}
		if n == want {
			dst = append(dst, math.Sqrt(top[want-1]))
		}
	}
	return dst
}

// sqrtBelow returns the largest float64 d with math.Sqrt(d) < t, or -1
// when no d ≥ 0 has one: the squared-distance threshold that decides,
// without a square root, whether a distance is below t.
func sqrtBelow(t float64) float64 {
	if !(t > 0) {
		return -1
	}
	d := t * t
	for d > 0 && math.Sqrt(d) >= t {
		d = math.Nextafter(d, 0)
	}
	for {
		u := math.Nextafter(d, math.Inf(1))
		if !(math.Sqrt(u) < t) {
			return d
		}
		d = u
	}
}

// grow returns s resized to n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
