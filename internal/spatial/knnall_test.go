package spatial

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// viewportShaped mimics one classifier input: a person-sized blob with
// duplicated points, plus padding noise clamped to a ±2 m window, so
// many points sit exactly on the x = ±2 and y = ±2 sheets and on their
// corner lines — where the per-cell blocks of KNNAll are densest.
func viewportShaped(rng *rand.Rand, n int) geom.Cloud {
	clamp := func(v float64) float64 {
		if v > 2 {
			return 2
		}
		if v < -2 {
			return -2
		}
		return v
	}
	cloud := make(geom.Cloud, 0, n)
	for len(cloud) < n {
		switch {
		case len(cloud) > 0 && rng.Intn(6) == 0:
			cloud = append(cloud, cloud[rng.Intn(len(cloud))])
		case rng.Intn(3) == 0:
			cloud = append(cloud, geom.Point3{
				X: clamp(rng.NormFloat64() * 3),
				Y: clamp(rng.NormFloat64() * 3),
				Z: rng.Float64() * 2,
			})
		default:
			cloud = append(cloud, geom.Point3{
				X: rng.NormFloat64() * 0.25,
				Y: rng.NormFloat64() * 0.25,
				Z: 3 + rng.Float64()*1.7,
			})
		}
	}
	return cloud
}

// bothPaths runs f once with the vector kernels on — KNNAll's
// small-cloud path answers clouds of up to smallMax points at k ≤ 16 —
// and once with them off, where every cloud takes the column search.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	for _, vec := range []bool{true, false} {
		t.Run(fmt.Sprintf("vectorized=%v", vec), func(t *testing.T) {
			prev := kernels.SetVectorized(vec)
			defer kernels.SetVectorized(prev)
			f(t)
		})
	}
}

// bruteKNN is the k-nearest reference: every point of cloud ranked by
// its squared distance from q, ties by the lower index, and the first
// min(k, n) kept. The order is written out here rather than taken from
// less, so the oracle shares no code with what it checks; it is total on
// finite clouds, the only ones it ranks.
func bruteKNN(cloud geom.Cloud, q geom.Point3, k int) []Neighbor {
	all := make([]Neighbor, len(cloud))
	for i, p := range cloud {
		all[i] = Neighbor{Index: i, Dist2: q.Dist2(p)}
	}
	slices.SortFunc(all, func(a, b Neighbor) int {
		switch {
		case a.Dist2 < b.Dist2:
			return -1
		case a.Dist2 > b.Dist2:
			return 1
		}
		return a.Index - b.Index
	})
	return all[:min(k, len(all))]
}

// checkKNNAll holds KNNAll to bruteKNN over cloud, for every point, and
// returns how many points took KNNAll's exact pass over their
// candidates.
func checkKNNAll(t *testing.T, name string, cloud geom.Cloud, k int) int {
	t.Helper()
	got := make([][]Neighbor, len(cloud))
	calls := 0
	ties := knnAll(cloud, k, func(i int, nn []Neighbor) {
		calls++
		if got[i] != nil {
			t.Fatalf("%s k=%d: point %d reported twice", name, k, i)
		}
		got[i] = append([]Neighbor{}, nn...)
	})
	if calls != len(cloud) {
		t.Fatalf("%s k=%d: %d calls for %d points", name, k, calls, len(cloud))
	}
	for i, p := range cloud {
		want := bruteKNN(cloud, p, k)
		if len(got[i]) != len(want) {
			t.Fatalf("%s k=%d point %d: %d neighbors, brute force has %d", name, k, i, len(got[i]), len(want))
		}
		for j := range want {
			// Neighbor equality compares Index and the Dist2 bits.
			if got[i][j] != want[j] {
				t.Fatalf("%s k=%d point %d: KNNAll %v != brute force %v", name, k, i, got[i], want)
			}
		}
	}
	return ties
}

// heightMajor returns cloud sorted by (z, x, y), the order the
// projection hands KNNAll its clouds in.
func heightMajor(cloud geom.Cloud) geom.Cloud {
	c := cloud.Clone()
	slices.SortStableFunc(c, func(a, b geom.Point3) int {
		if c := cmp.Compare(a.Z, b.Z); c != 0 {
			return c
		}
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	return c
}

// latticeCloud puts points on an integer lattice, so nearly every point
// has several neighbors at exactly equal distances on either side.
func latticeCloud(nx, ny, nz int) geom.Cloud {
	var cloud geom.Cloud
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				cloud = append(cloud, geom.Point3{X: float64(x), Y: float64(y), Z: float64(z)})
			}
		}
	}
	return cloud
}

// nearTies builds groups of a query point q and two points whose
// squared distances from q differ only in their last bits, the
// nearer one with the higher index: keys with the index in their low
// bits rank the pair the wrong way round, and only the exact pass puts
// the nearer one first.
func nearTies(rng *rand.Rand, groups int) geom.Cloud {
	var cloud geom.Cloud
	for g := 0; g < groups; g++ {
		q := geom.Point3{X: float64(g%10) * 4, Y: float64(g/10) * 4, Z: rng.Float64()}
		r := 0.2 + rng.Float64()*0.3
		far := geom.Point3{X: q.X + r, Y: q.Y, Z: q.Z}
		near := geom.Point3{X: q.X, Y: q.Y + r*(1-0x1p-50), Z: q.Z}
		cloud = append(cloud, q, far, near)
	}
	return cloud
}

// boundaryTies builds groups that meet the search's pruning bounds with
// no room to spare. Each group is a query point q at height 0 and two
// pairs at squared distance exactly d from q, d's index bits all ones,
// so the pruning bound, once one point of a pair is in, is d itself:
//   - b, on the nearest float of the next column over, where the
//     column lower bound falls within rounding of d; and b′, straight
//     above q at the same distance;
//   - u above q and w below it, at the same height difference, where a
//     sweep meets the other point's dz² equal to the bound.
//
// Within each pair the point the search reaches second has the lower
// index, so a search that prunes it on a bound a rounding too tight
// returns its twin instead.
func boundaryTies(rng *rand.Rand, groups int) geom.Cloud {
	const spacing = 3.0
	side := int(math.Ceil(math.Sqrt(float64(groups))))
	w := spacing * float64(side)
	n := 2 + 6*groups
	// The column layout depends only on the xy extent and n: fix both
	// with two anchor points and read the layout off a build over
	// placeholders.
	cloud := make(geom.Cloud, n)
	cloud[0], cloud[1] = geom.Point3{X: -1, Y: -1, Z: 0}, geom.Point3{X: w, Y: w, Z: 0}
	var s allScratch
	s.build(cloud, 1)
	mask := s.mask
	colX := func(x float64) int { return int((x - s.minX) * s.inv) }
	allOnes := func(d float64) bool { return math.Float64bits(d*d)&mask == mask }
	for g := 0; g < groups; g++ {
		gx, gy := spacing*float64(g%side)+1, spacing*float64(g/side)+1
		c := colX(gx) + 1
		// b: the first float in column c.
		b := s.minX + float64(c)/s.inv
		for colX(b) >= c {
			b = math.Nextafter(b, math.Inf(-1))
		}
		for colX(b) < c {
			b = math.Nextafter(b, math.Inf(1))
		}
		// q: just left of b, with a distance whose index bits are ones.
		qx := b - 0.02 - rng.Float64()*0.02
		for !allOnes(qx - b) {
			qx = math.Nextafter(qx, math.Inf(-1))
		}
		dx := qx - b
		// u, w: a second height difference with all-ones index bits.
		h := 0.03 + rng.Float64()*0.01
		for !allOnes(h) {
			h = math.Nextafter(h, math.Inf(1))
		}
		q := geom.Point3{X: qx, Y: gy, Z: 0}
		// Put the pair member the search meets second first in the
		// cloud, in both orders across groups.
		bPair := [2]geom.Point3{{X: b, Y: gy, Z: 0}, {X: qx, Y: gy, Z: -dx}}
		zPair := [2]geom.Point3{{X: qx, Y: gy, Z: -h}, {X: qx, Y: gy, Z: h}}
		if g%2 == 1 {
			bPair[0], bPair[1] = bPair[1], bPair[0]
			zPair[0], zPair[1] = zPair[1], zPair[0]
		}
		cloud[2+6*g] = bPair[0]
		cloud[3+6*g] = zPair[0]
		cloud[4+6*g] = q
		cloud[5+6*g] = bPair[1]
		cloud[6+6*g] = zPair[1]
		// A far point in q's column keeps the column from being q's
		// pairs alone.
		cloud[7+6*g] = geom.Point3{X: qx, Y: gy, Z: 5}
	}
	return cloud
}

// TestKNNAllMatchesKDTree pins KNNAll to the brute-force scan element
// for element — indices and distance bits — on both of its paths and on
// the cloud shapes the classifier, the adaptive-ε curve and the tests meet:
// unsorted and height-major input, duplicates and mirror-symmetric equal
// distances, sizes on either side of a key's index-bit widths (255, 256,
// 257, 1100 points) and of the small-cloud crossover (smallMax), a single
// column, one height, a sparse cloud, generated classifier inputs, and
// clouds built to meet the pruning bounds exactly, at every k the
// small-cloud path takes and the first it leaves to the columns. Clouds
// with equal distances at the k-th neighbor must take the exact pass.
func TestKNNAllMatchesKDTree(t *testing.T) {
	bothPaths(t, testKNNAllMatchesKDTree)
}

func testKNNAllMatchesKDTree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	line := make(geom.Cloud, 60)
	flat := make(geom.Cloud, 150)
	for i := range line {
		line[i] = geom.Point3{X: rng.Float64() * 4, Y: 1, Z: 2}
	}
	for i := range flat {
		flat[i] = geom.Point3{X: rng.Float64() * 3, Y: rng.Float64() * 3, Z: 0.5}
	}
	dups := make(geom.Cloud, 40)
	for i := range dups {
		dups[i] = geom.Point3{X: float64(i % 3), Y: 1, Z: float64(i % 2)}
	}
	column := make(geom.Cloud, 70)
	for i := range column {
		column[i] = geom.Point3{X: 0.25, Y: -1, Z: rng.Float64() * 2}
	}
	oneZ := viewportShaped(rng, 225)
	for i := range oneZ {
		oneZ[i].Z = 1.5
	}
	descending := heightMajor(viewportShaped(rng, 225))
	slices.Reverse(descending)
	type namedCloud struct {
		name  string
		cloud geom.Cloud
		ties  bool // equal distances at the k-th neighbor somewhere
	}
	clouds := []namedCloud{
		{"random9", randomCloud(rng, 9), false},
		{"random120", randomCloud(rng, 120), false},
		{"random300", randomCloud(rng, 300), false},
		{"random400", randomCloud(rng, 400), false},
		{"smallMax", randomCloud(rng, smallMax), false},
		{"smallMax+1", randomCloud(rng, smallMax+1), false},
		{"coincident", geom.Cloud{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}}, true},
		{"duplicates", dups, true},
		{"collinear", line, false},
		{"flat", flat, false},
		{"one", geom.Cloud{{X: 0.5, Y: -2, Z: 3}}, false},
		{"viewport225", viewportShaped(rng, 225), true},
		{"viewport400", viewportShaped(rng, 400), true},
		{"height-major225", heightMajor(viewportShaped(rng, 225)), true},
		{"descending225", descending, true},
		{"viewport255", heightMajor(viewportShaped(rng, 255)), true},
		{"viewport256", heightMajor(viewportShaped(rng, 256)), true},
		{"viewport257", heightMajor(viewportShaped(rng, 257)), true},
		{"viewport1100", viewportShaped(rng, 1100), true},
		{"one-column", column, false},
		{"one-height", oneZ, true},
		{"lattice", latticeCloud(5, 4, 3), true},
		{"near-ties", nearTies(rng, 40), true},
		{"boundary-ties", boundaryTies(rng, 100), true},
	}
	for i, c := range generatedViewports(4, 225) {
		clouds = append(clouds, namedCloud{fmt.Sprintf("generated%d", i), c, false})
	}
	for _, c := range clouds {
		n := len(c.cloud)
		ks := []int{1, 2, 8, n - 1, n, n + 3}
		if n > 600 {
			ks = ks[:3] // a k near n costs O(n³) at this size
		}
		ties := 0
		for _, k := range ks {
			ties += checkKNNAll(t, c.name, c.cloud, k)
		}
		if c.ties && ties == 0 {
			t.Fatalf("%s: no point took the exact pass", c.name)
		}
	}

	// Every k the small-cloud path answers, and the first past it, on the
	// clouds of up to 260 points (the oracle's cost grows with n).
	for _, c := range clouds {
		if len(c.cloud) <= 260 && len(c.cloud) > groups+1 {
			for k := 3; k <= groups+1; k++ {
				checkKNNAll(t, c.name, c.cloud, k)
			}
		}
	}

	// A sparse cloud: most columns hold one point or none, so most
	// searches cross several rings.
	sparse := make(geom.Cloud, 80)
	for i := range sparse {
		sparse[i] = geom.Point3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 5}
	}
	for _, k := range []int{1, 8, len(sparse), len(sparse) + 3} {
		checkKNNAll(t, "sparse", sparse, k)
	}
}

// TestKNNAllNonFinite feeds KNNAll clouds with non-finite points — NaN
// or infinite coordinates, which only a direct caller can pass (the
// pipeline's ROI crop drops such points) — on both paths; the
// small-cloud path must leave every such cloud to the columns. fn must
// be called once per point, with min(k, n) neighbors, and nothing may
// panic. A bad point is farther than any other from every finite point,
// so a finite point's list, while k is below the finite count, is the
// brute-force list over the finite points alone; a bad point's own list
// has no order to pin.
func TestKNNAllNonFinite(t *testing.T) {
	bothPaths(t, testKNNAllNonFinite)
}

func testKNNAllNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bad := []struct {
		name string
		set  func(p *geom.Point3)
	}{
		{"nan-x", func(p *geom.Point3) { p.X = math.NaN() }},
		{"nan-z", func(p *geom.Point3) { p.Z = math.NaN() }},
		{"-inf-z", func(p *geom.Point3) { p.Z = math.Inf(-1) }},
		{"+inf-x", func(p *geom.Point3) { p.X = math.Inf(1) }},
	}
	// One column: every point shares its xy, so a bad point sits in a
	// long run of the column layout that the sweeps walk.
	column := make(geom.Cloud, 70)
	for i := range column {
		column[i] = geom.Point3{X: 0.25, Y: -1, Z: rng.Float64() * 2}
	}
	// The same column z-sorted but for one descent, across the point
	// that goes bad: only a NaN-aware check sees that it needs a sort.
	sorted := heightMajor(column)
	sorted[29], sorted[31] = sorted[31], sorted[29]
	// Two stacks 1 cm apart, each its own column, most of the second
	// going bad: a sweep into a run that is mostly NaN must still start
	// at its query's height.
	stacks := make(geom.Cloud, 60)
	var mostly []int
	for i := range stacks {
		stacks[i] = geom.Point3{X: 0.01 * float64(i%2), Z: rng.Float64() * 2}
		if i%2 == 1 && i < 45 {
			mostly = append(mostly, i)
		}
	}
	for _, b := range bad {
		for _, c := range []struct {
			cloud geom.Cloud
			at    []int
		}{
			{randomCloud(rng, 200), []int{rng.Intn(200)}},
			{column.Clone(), []int{rng.Intn(70)}},
			{sorted.Clone(), []int{30}},
			{column.Clone(), []int{3, 17, 40, 41, 62}},
			{stacks.Clone(), mostly},
		} {
			for _, i := range c.at {
				b.set(&c.cloud[i])
			}
			if new(allScratch).loadSmall(c.cloud) {
				t.Fatalf("%s: the small-cloud path takes a non-finite cloud", b.name)
			}
			checkNonFinite(t, b.name, c.cloud, c.at)
		}
	}
}

// checkNonFinite holds KNNAll's answers on cloud, whose points at
// (ascending) are its non-finite ones, as TestKNNAllNonFinite describes.
func checkNonFinite(t *testing.T, name string, cloud geom.Cloud, at []int) {
	t.Helper()
	var finite geom.Cloud
	var orig []int // finite[j] is cloud[orig[j]]
	for i, p := range cloud {
		if !slices.Contains(at, i) {
			finite = append(finite, p)
			orig = append(orig, i)
		}
	}
	for _, k := range []int{1, 5, 8, len(cloud) + 3} {
		calls := make([]int, len(cloud))
		KNNAll(cloud, k, func(i int, nn []Neighbor) {
			calls[i]++
			if len(nn) != min(k, len(cloud)) {
				t.Fatalf("%s n=%d k=%d point %d: %d neighbors", name, len(cloud), k, i, len(nn))
			}
			for _, m := range nn {
				if m.Index < 0 || m.Index >= len(cloud) {
					t.Fatalf("%s n=%d k=%d point %d: neighbor index %d", name, len(cloud), k, i, m.Index)
				}
			}
			if slices.Contains(at, i) || k >= len(finite) {
				return
			}
			want := bruteKNN(finite, cloud[i], k)
			for j := range want {
				want[j].Index = orig[want[j].Index]
			}
			if !equalNeighbors(nn, want) {
				t.Fatalf("%s n=%d k=%d point %d: KNNAll %v != brute force %v", name, len(cloud), k, i, nn, want)
			}
		})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("%s n=%d k=%d: point %d reported %d times", name, len(cloud), k, i, c)
			}
		}
	}
}

// TestKNNAllZeroAllocs holds the σz pass of one classifier input — a
// height-major 225-point viewport cloud — to zero heap allocations per
// call once the pooled scratch has grown, on both paths.
func TestKNNAllZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	cloud := heightMajor(viewportShaped(rand.New(rand.NewSource(5)), 225))
	var sum float64
	fn := func(i int, nn []Neighbor) { sum += nn[len(nn)-1].Dist2 }
	bothPaths(t, func(t *testing.T) {
		KNNAll(cloud, 8, fn)
		if allocs := testing.AllocsPerRun(50, func() { KNNAll(cloud, 8, fn) }); allocs != 0 {
			t.Fatalf("KNNAll allocates %.1f times per call at steady state", allocs)
		}
	})
}
