package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// randomCloud builds a cloud with clustered structure plus uniform
// scatter, including exact duplicates so distance ties exercise the
// (Dist2, Index) tie-break.
func randomCloud(rng *rand.Rand, n int) geom.Cloud {
	cloud := make(geom.Cloud, 0, n)
	for len(cloud) < n {
		switch rng.Intn(4) {
		case 0: // tight blob
			cx, cy, cz := rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*2
			for i := 0; i < 5 && len(cloud) < n; i++ {
				cloud = append(cloud, geom.Point3{
					X: cx + rng.NormFloat64()*0.1,
					Y: cy + rng.NormFloat64()*0.1,
					Z: cz + rng.NormFloat64()*0.1,
				})
			}
		case 1: // exact duplicate of an existing point
			if len(cloud) > 0 {
				cloud = append(cloud, cloud[rng.Intn(len(cloud))])
			} else {
				cloud = append(cloud, geom.Point3{})
			}
		default: // uniform scatter
			cloud = append(cloud, geom.Point3{
				X: rng.Float64()*12 - 6,
				Y: rng.Float64()*12 - 6,
				Z: rng.Float64() * 3,
			})
		}
	}
	return cloud
}

// bruteRadius is the reference radius query: linear scan, inclusive
// boundary, ascending index order.
func bruteRadius(cloud geom.Cloud, q geom.Point3, r float64) []int {
	r2 := r * r
	var out []int
	for i, p := range cloud {
		if q.Dist2(p) <= r2 {
			out = append(out, i)
		}
	}
	return out
}

// newGrid builds a grid over cloud with the given cell edge.
func newGrid(cloud geom.Cloud, cell float64) *Grid {
	g := &Grid{}
	g.Reset(cloud, cell)
	return g
}

// RadiusInto appends the indices of all points within radius r of q
// (inclusive) to dst and returns the extended slice: RadiusCount's cell
// scan, collecting the ids it counts. The running system only counts;
// the tests read the ids to hold the scan to bruteRadius.
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

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryPoints yields a mix of indexed points, perturbed points, and
// far-outside-bounds points.
func queryPoints(rng *rand.Rand, cloud geom.Cloud, n int) []geom.Point3 {
	qs := make([]geom.Point3, 0, n)
	for len(qs) < n {
		switch rng.Intn(3) {
		case 0:
			qs = append(qs, cloud[rng.Intn(len(cloud))])
		case 1:
			p := cloud[rng.Intn(len(cloud))]
			qs = append(qs, geom.Point3{
				X: p.X + rng.NormFloat64()*0.3,
				Y: p.Y + rng.NormFloat64()*0.3,
				Z: p.Z + rng.NormFloat64()*0.3,
			})
		default:
			qs = append(qs, geom.Point3{
				X: rng.Float64()*60 - 30,
				Y: rng.Float64()*60 - 30,
				Z: rng.Float64()*20 - 10,
			})
		}
	}
	return qs
}

// boundaryRadii returns n radii placed exactly at distances from q to
// points of cloud, where the inclusive <= contract alone decides
// membership.
func boundaryRadii(rng *rand.Rand, cloud geom.Cloud, q geom.Point3, n int) []float64 {
	var radii []float64
	for i := 0; i < n; i++ {
		p := cloud[rng.Intn(len(cloud))]
		if d := math.Sqrt(q.Dist2(p)); d > 0 {
			radii = append(radii, d)
		}
	}
	return radii
}

func TestGridRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	brng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 7, 64, 400} {
		cloud := randomCloud(rng, n)
		for _, cell := range []float64{0.15, 0.5, 2.0} {
			g := newGrid(cloud, cell)
			var buf []int
			for _, q := range queryPoints(rng, cloud, 30) {
				for _, r := range append([]float64{0, 0.2, 0.5, 3.0}, boundaryRadii(brng, cloud, q, 4)...) {
					want := bruteRadius(cloud, q, r)
					buf = g.RadiusInto(buf[:0], q, r)
					got := sortedCopy(buf)
					if !equalInts(got, want) {
						t.Fatalf("n=%d cell=%g q=%v r=%g: radius mismatch\ngot  %v\nwant %v",
							n, cell, q, r, got, want)
					}
					if c := g.RadiusCount(q, r); c != len(want) {
						t.Fatalf("n=%d cell=%g q=%v r=%g: RadiusCount=%d want %d",
							n, cell, q, r, c, len(want))
					}
				}
			}
		}
	}
}

// TestGridVectorizedMatchesScalar pins that the grid's radius ids and
// counts do not depend on the kernels' vector switch: with the SIMD
// kernels on and off, at radii sitting exactly on point distances, both
// runs return the brute-force set. The grid has one float64 radius path,
// so a second path that rounds differently would show here first.
func TestGridVectorizedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{9, 120, 600} {
		cloud := randomCloud(rng, n)
		queries := queryPoints(rng, cloud, 8)

		type answer struct {
			ids    [][]int
			counts []int
		}
		var got [2]answer
		for idx, vec := range []bool{true, false} {
			prev := kernels.SetVectorized(vec)
			g := newGrid(cloud, 0.4)
			for qi, q := range queries {
				qrng := rand.New(rand.NewSource(int64(n*100 + qi)))
				for _, r := range append([]float64{0.35, 0.8}, boundaryRadii(qrng, cloud, q, 4)...) {
					ids := sortedCopy(g.RadiusInto(nil, q, r))
					if want := bruteRadius(cloud, q, r); !equalInts(ids, want) {
						kernels.SetVectorized(prev)
						t.Fatalf("n=%d vec=%v q=%v r=%g: radius ids %v, brute force %v",
							n, vec, q, r, ids, want)
					}
					got[idx].ids = append(got[idx].ids, ids)
					got[idx].counts = append(got[idx].counts, g.RadiusCount(q, r))
				}
			}
			kernels.SetVectorized(prev)
		}

		if len(got[0].ids) != len(got[1].ids) {
			t.Fatalf("n=%d: query count mismatch", n)
		}
		for i := range got[0].ids {
			if !equalInts(got[0].ids[i], got[1].ids[i]) {
				t.Fatalf("n=%d query %d: vectorized radius ids %v != scalar %v",
					n, i, got[0].ids[i], got[1].ids[i])
			}
			if got[0].counts[i] != got[1].counts[i] {
				t.Fatalf("n=%d query %d: vectorized count %d != scalar %d",
					n, i, got[0].counts[i], got[1].counts[i])
			}
		}
	}
}

// TestGridMatchesKDTree pins the grid to the brute-force scan on one
// denser cloud at the radii DBSCAN and DA query: identical radius sets
// and counts.
func TestGridMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cloud := randomCloud(rng, 500)
	g := newGrid(cloud, 0.3)
	var ids []int
	for _, q := range queryPoints(rng, cloud, 60) {
		for _, r := range []float64{0.1, 0.3, 1.5} {
			want := bruteRadius(cloud, q, r)
			ids = g.RadiusInto(ids[:0], q, r)
			if got := sortedCopy(ids); !equalInts(got, want) {
				t.Fatalf("q=%v r=%g: grid radius %v != brute force %v", q, r, got, want)
			}
			if c := g.RadiusCount(q, r); c != len(want) {
				t.Fatalf("q=%v r=%g: grid count %d != brute force %d", q, r, c, len(want))
			}
		}
	}
}

func TestGridDegenerateClouds(t *testing.T) {
	q := geom.Point3{X: 1, Y: 2, Z: 3}

	var empty *Grid
	if got := empty.RadiusInto(nil, q, 1); got != nil {
		t.Fatalf("nil grid RadiusInto = %v, want nil", got)
	}
	if empty.Len() != 0 {
		t.Fatalf("nil grid Len = %d", empty.Len())
	}

	g := newGrid(nil, 0.5)
	if got := g.RadiusInto(nil, q, 1); len(got) != 0 {
		t.Fatalf("empty grid radius = %v", got)
	}

	// All points coincident.
	dup := geom.Cloud{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}}
	g = newGrid(dup, 0.5)
	if c := g.RadiusCount(geom.Point3{X: 1, Y: 1, Z: 1}, 0); c != 3 {
		t.Fatalf("coincident RadiusCount = %d, want 3", c)
	}

	// Flat (planar) cloud: zero volume.
	flat := make(geom.Cloud, 50)
	rng := rand.New(rand.NewSource(15))
	for i := range flat {
		flat[i] = geom.Point3{X: rng.Float64() * 5, Y: rng.Float64() * 5, Z: 1.5}
	}
	g = newGrid(flat, 0.3)
	for _, r := range []float64{0.3, 2.0} {
		want := bruteRadius(flat, q, r)
		if got := sortedCopy(g.RadiusInto(nil, q, r)); !equalInts(got, want) {
			t.Fatalf("flat cloud radius r=%g: got %v want %v", r, got, want)
		}
	}

	// Negative radius.
	if got := g.RadiusInto(nil, q, -1); got != nil {
		t.Fatalf("negative radius = %v, want nil", got)
	}
	if c := g.RadiusCount(q, -1); c != 0 {
		t.Fatalf("negative RadiusCount = %d", c)
	}

	// A cell edge that is not positive is a caller bug.
	for _, cell := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset with cell %v did not panic", cell)
				}
			}()
			newGrid(dup, cell)
		}()
	}
}

// TestGridCellBudget forces the maxGridCells doubling path with a cloud
// whose extent would demand billions of fine cells, and checks queries
// stay exact.
func TestGridCellBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cloud := make(geom.Cloud, 200)
	for i := range cloud {
		cloud[i] = geom.Point3{
			X: rng.Float64() * 1e4,
			Y: rng.Float64() * 1e4,
			Z: rng.Float64() * 1e4,
		}
	}
	g := newGrid(cloud, 0.01) // naive lattice would be 1e18 cells
	if cells := int64(g.nx) * int64(g.ny) * int64(g.nz); cells > maxGridCells {
		t.Fatalf("cell budget not enforced: %d cells", cells)
	}
	if g.cell <= 0.01 {
		t.Fatalf("cell edge not grown: %g", g.cell)
	}
	for _, q := range queryPoints(rng, cloud, 10) {
		want := bruteRadius(cloud, q, 500)
		if got := sortedCopy(g.RadiusInto(nil, q, 500)); !equalInts(got, want) {
			t.Fatalf("capped grid radius mismatch: got %v want %v", got, want)
		}
	}
}

// TestGridResetReuse pins the one-build-per-frame contract: rebuilding
// over changing clouds keeps queries exact and, once the buffers have
// grown, allocation-free.
func TestGridResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := &Grid{}
	for round := 0; round < 5; round++ {
		cloud := randomCloud(rng, 100+round*50)
		g.Reset(cloud, 0.4)
		for _, q := range queryPoints(rng, cloud, 10) {
			want := bruteRadius(cloud, q, 0.6)
			if got := sortedCopy(g.RadiusInto(nil, q, 0.6)); !equalInts(got, want) {
				t.Fatalf("round %d: radius mismatch: got %v want %v", round, got, want)
			}
		}
	}

	// Steady state: same-size cloud rebuilt into warm buffers.
	cloud := randomCloud(rng, 300)
	g.Reset(cloud, 0.4)
	q := cloud[0]
	nbuf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		g.Reset(cloud, 0.4)
		nbuf = g.RadiusInto(nbuf[:0], q, 0.6)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+query allocates: %.1f allocs/op", allocs)
	}
}

func TestFrameIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cloud := randomCloud(rng, 250)
	var fi FrameIndex
	fi.Build(cloud, 0.3)
	if fi.Len() != len(cloud) {
		t.Fatalf("Len = %d, want %d", fi.Len(), len(cloud))
	}
	for _, q := range queryPoints(rng, cloud, 20) {
		want := bruteRadius(cloud, q, 0.5)
		if got := sortedCopy(fi.Grid.RadiusInto(nil, q, 0.5)); !equalInts(got, want) {
			t.Fatalf("FrameIndex radius mismatch: got %v want %v", got, want)
		}
		if c := fi.RadiusCount(q, 0.5); c != len(want) {
			t.Fatalf("FrameIndex RadiusCount = %d, want %d", c, len(want))
		}
	}

	// Rebuild + query in steady state is allocation-free.
	fi.Build(cloud, 0.3)
	q := cloud[0]
	nbuf := fi.Grid.RadiusInto(nil, q, 0.5)
	allocs := testing.AllocsPerRun(100, func() {
		fi.Build(cloud, 0.3)
		nbuf = fi.Grid.RadiusInto(nbuf[:0], q, 0.5)
		_ = fi.RadiusCount(q, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FrameIndex allocates: %.1f allocs/op", allocs)
	}
}
