package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hawccc/internal/geom"
)

// pairCase is a block of one layout and the spans PairCount and
// PairFill pair it with, in order: the sweep fills each row over
// several spans. A lower span is only filled, lower.
type pairCase struct {
	xs, ys, zs []float64
	n, a0, a1  int
	spans      []pairSpan
	r2         float64
}

type pairSpan struct {
	b0, b1 int
	lower  bool
}

// partners returns the j range row i pairs with in span sp.
func (sp pairSpan) partners(i int) (j0, j1 int) {
	if sp.lower {
		return sp.b0, min(sp.b1, i)
	}
	return max(sp.b0, i+1), sp.b1
}

// randPairCase draws a layout of n points (plus the pad, filled with
// values the pad lanes must never let through), a block, and up to
// three spans: the block with itself and what follows it, or later
// ranges, or — lower — what precedes the block and the block itself.
// vals draws the coordinates.
func randPairCase(rng *rand.Rand, vals func() float64) pairCase {
	n := 1 + rng.Intn(40)
	c := pairCase{n: n}
	for _, s := range []*[]float64{&c.xs, &c.ys, &c.zs} {
		*s = make([]float64, n+PairPad)
		for i := range *s {
			(*s)[i] = vals()
		}
		for i := n; i < n+PairPad; i++ {
			(*s)[i] = 0 // a pad lane at distance 0 must never count
		}
	}
	c.a0 = rng.Intn(n)
	c.a1 = c.a0 + rng.Intn(n-c.a0+1)
	for k := rng.Intn(3); k >= 0; k-- {
		var sp pairSpan
		switch rng.Intn(3) {
		case 0: // the block with itself and what follows
			sp = pairSpan{b0: c.a0, b1: c.a1 + rng.Intn(n-c.a1+1)}
		case 1:
			sp.b0 = c.a1 + rng.Intn(n-c.a1+1)
			sp.b1 = sp.b0 + rng.Intn(n-sp.b0+1)
		default:
			sp = pairSpan{b0: rng.Intn(c.a0 + 1), lower: true}
			sp.b1 = sp.b0 + rng.Intn(c.a1-sp.b0+1)
		}
		c.spans = append(c.spans, sp)
	}
	switch rng.Intn(4) {
	case 0:
		c.r2 = math.Inf(1)
	case 1:
		c.r2 = 0
	default:
		c.r2 = rng.Float64() * 3000
	}
	return c
}

// pairRef lists the pairs (i, j, Dist2) PairFill must write, in each
// row's order: span by span, j ascending; and which are PairCount's.
func pairRef(c pairCase) (pairs [][2]int, d2 []float64, counted []bool) {
	for _, sp := range c.spans {
		for i := c.a0; i < c.a1; i++ {
			p := geom.Point3{X: c.xs[i], Y: c.ys[i], Z: c.zs[i]}
			j0, j1 := sp.partners(i)
			for j := j0; j < j1; j++ {
				d := p.Dist2(geom.Point3{X: c.xs[j], Y: c.ys[j], Z: c.zs[j]})
				if d <= c.r2 {
					pairs = append(pairs, [2]int{i, j})
					d2 = append(d2, d)
					counted = append(counted, !sp.lower)
				}
			}
		}
	}
	return pairs, d2, counted
}

// runPairs counts and fills c with the kernels in their current mode:
// each point's forward and backward pair counts over the forward spans,
// and its row, laid out with room for every candidate and the pad
// PairFill may write into.
func runPairs(c pairCase) (fwd, back []int64, rows [][]int32, dists [][]float64) {
	fwd, back = make([]int64, c.n+PairPad), make([]int64, c.n+PairPad)
	for _, sp := range c.spans {
		if !sp.lower {
			PairCount(fwd, back, c.xs, c.ys, c.zs, c.a0, c.a1, sp.b0, sp.b1, c.r2)
		}
	}
	room := int64(PairPad)
	for _, sp := range c.spans {
		room += int64(sp.b1 - sp.b0)
	}
	start := make([]int64, c.n+PairPad)
	total := int64(0)
	for p := 0; p < c.n; p++ {
		start[p] = total
		total += room
	}
	end := slices.Clone(start)
	nbr := make([]int32, total)
	dist := make([]float64, total)
	for _, sp := range c.spans {
		PairFill(end, nbr, dist, c.xs, c.ys, c.zs, c.a0, c.a1, sp.b0, sp.b1, c.r2, sp.lower)
	}
	for p := 0; p < c.n; p++ {
		rows = append(rows, nbr[start[p]:end[p]])
		dists = append(dists, dist[start[p]:end[p]])
	}
	return fwd, back, rows, dists
}

// TestPairKernelsMatchReference holds PairCount's counts and PairFill's
// forward rows to a scalar walk over geom.Point3.Dist2 on ±0, subnormal,
// huge and infinite coordinates, and campus-scale ones: every distance
// bit for bit, every pair in its row in sweep order, no pad lane
// counted, no row written past its pad. The vector and pure-Go paths
// must agree on every case.
func TestPairKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	campus := func() float64 { return rng.NormFloat64() * 2 }
	wild := func() float64 { return randVal64(rng) }
	for it := 0; it < 3000; it++ {
		vals := campus
		if it%2 == 1 {
			vals = wild
		}
		c := randPairCase(rng, vals)
		pairs, d2, counted := pairRef(c)
		wantFwd, wantBack := make([]int64, c.n+PairPad), make([]int64, c.n+PairPad)
		wantRows, wantDists := make([][]int32, c.n), make([][]float64, c.n)
		for k, p := range pairs {
			if counted[k] {
				wantFwd[p[0]]++
				wantBack[p[1]]++
			}
			wantRows[p[0]] = append(wantRows[p[0]], int32(p[1]))
			wantDists[p[0]] = append(wantDists[p[0]], d2[k])
		}
		for _, vec := range []bool{true, false} {
			prev := SetVectorized(vec)
			fwd, back, rows, dists := runPairs(c)
			SetVectorized(prev)
			if !slices.Equal(fwd, wantFwd) || !slices.Equal(back, wantBack) {
				t.Fatalf("case %d vectorized=%v: counts %v/%v, want %v/%v", it, vec, fwd, back, wantFwd, wantBack)
			}
			for p := range rows {
				if !slices.Equal(rows[p], wantRows[p]) {
					t.Fatalf("case %d vectorized=%v: row %d = %v, want %v", it, vec, p, rows[p], wantRows[p])
				}
				for k, d := range dists[p] {
					if math.Float64bits(d) != math.Float64bits(wantDists[p][k]) {
						t.Fatalf("case %d vectorized=%v: row %d distance %d = %v, want %v", it, vec, p, k, d, wantDists[p][k])
					}
				}
			}
		}
	}
}

// TestPairKernelsNeverTakeNaN puts a NaN coordinate in every point but
// one and pairs them at r2 = +Inf: no pair may count, since a NaN is
// never ≤ r2; the one finite point with finite ones does.
func TestPairKernelsNeverTakeNaN(t *testing.T) {
	const n = 11
	c := pairCase{n: n, a0: 0, a1: n, spans: []pairSpan{{b0: 0, b1: n}, {b0: 0, b1: n, lower: true}}, r2: math.Inf(1)}
	c.xs, c.ys, c.zs = make([]float64, n+PairPad), make([]float64, n+PairPad), make([]float64, n+PairPad)
	for i := 1; i < n; i++ {
		switch i % 3 {
		case 0:
			c.xs[i] = math.NaN()
		case 1:
			c.ys[i] = math.NaN()
		default:
			c.zs[i] = math.NaN()
		}
	}
	for _, vec := range []bool{true, false} {
		prev := SetVectorized(vec)
		fwd, back, _, _ := runPairs(c)
		SetVectorized(prev)
		if slices.ContainsFunc(append(fwd, back...), func(d int64) bool { return d != 0 }) {
			t.Fatalf("vectorized=%v: NaN pairs counted: %v, %v", vec, fwd, back)
		}
	}
	c.xs[2], c.ys[2], c.zs[2] = 1, 1, 1 // point 2 now finite: pairs with 0
	for _, vec := range []bool{true, false} {
		prev := SetVectorized(vec)
		fwd, back, rows, dists := runPairs(c)
		SetVectorized(prev)
		if fwd[0] != 1 || back[2] != 1 || rows[0][0] != 2 || dists[0][0] != 3 || rows[2][0] != 0 || dists[2][0] != 3 {
			t.Fatalf("vectorized=%v: counts %v, %v, rows %v %v; want the one pair (0, 2) at 3", vec, fwd, back, rows, dists)
		}
	}
}

// TestMaskLEMatchesReference holds MaskLE to Go's <= on every length
// around the 64-distance word, NaN and ±Inf distances and distances at
// and one ulp either side of the bound included, with the kernels on and
// off, and stale bits in the buffer.
func TestMaskLEMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 0; n < 300; n++ {
		d := make([]float64, n)
		thr := rng.Float64()
		for k := range d {
			switch rng.Intn(8) {
			case 0:
				d[k] = math.NaN()
			case 1:
				d[k] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				d[k] = thr // the inclusive boundary
			case 3:
				d[k] = math.Nextafter(thr, math.Inf(1-2*rng.Intn(2)))
			default:
				d[k] = rng.Float64()
			}
		}
		for _, vec := range []bool{true, false} {
			bits := make([]uint64, (n+63)/64)
			for w := range bits {
				bits[w] = rng.Uint64()
			}
			prev := SetVectorized(vec)
			MaskLE(bits, d, thr)
			SetVectorized(prev)
			for k := 0; k < len(bits)*64; k++ {
				want := k < n && d[k] <= thr
				if got := bits[k/64]>>(k%64)&1 == 1; got != want {
					t.Fatalf("n=%d vectorized=%v: bit %d = %v, want %v", n, vec, k, got, want)
				}
			}
		}
	}
}
