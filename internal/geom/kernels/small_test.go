package kernels

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hawccc/internal/geom"
)

// randVal64 draws a float64 coordinate from the cases the exact distance
// pass must reproduce bit for bit: campus-scale metres, ±0, subnormals,
// magnitudes whose squares overflow to +Inf or sit near the top of the
// range, and ±Inf.
func randVal64(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return rng.NormFloat64() * 1e-310 // subnormal
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return rng.NormFloat64() * 1e200 // squares overflow
	case 4:
		return rng.NormFloat64() * 1e150 // squares near MaxFloat64
	case 5:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return rng.NormFloat64() * 40
	}
}

// dist2Min16Ref is Dist2Min16's scalar reference: geom.Point3.Dist2 per
// point, and each group's minimum under <, a NaN never taken, into mins
// (which start at +Inf).
func dist2Min16Ref(d2, xs, ys, zs []float64, q geom.Point3, mins *[16]float64) {
	for i := range d2 {
		d2[i] = q.Dist2(geom.Point3{X: xs[i], Y: ys[i], Z: zs[i]})
		if d2[i] < mins[i%16] {
			mins[i%16] = d2[i]
		}
	}
}

// kthRef returns the k-th smallest of v by sorting a copy.
func kthRef(v [16]float64, k int) float64 {
	s := v[:]
	slices.Sort(s)
	return s[k-1]
}

// TestDist2Min16MatchesReference holds the float64 distance pass to
// geom.Point3.Dist2's bits on ±0, subnormal, huge and infinite
// coordinates, its group minima to the scalar reference, and its k-th
// smallest minimum to a sort.
func TestDist2Min16MatchesReference(t *testing.T) {
	if !Vectorized() {
		t.Skip("the float64 kernels have only the vector form")
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 16 * (1 + rng.Intn(8))
		xs, ys, zs := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i], zs[i] = randVal64(rng), randVal64(rng), randVal64(rng)
		}
		q := geom.Point3{X: randVal64(rng), Y: randVal64(rng), Z: randVal64(rng)}
		if trial%2 == 0 {
			q = geom.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		want := make([]float64, n)
		wantMins := [16]float64{}
		for g := range wantMins {
			wantMins[g] = math.Inf(1)
		}
		dist2Min16Ref(want, xs, ys, zs, q, &wantMins)

		got := make([]float64, n)
		var mins [16]float64
		k := 1 + rng.Intn(16)
		kth := Dist2Min16(got, xs, ys, zs, q.X, q.Y, q.Z, &mins, k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d i=%d: q=%v p=(%v,%v,%v): Dist2Min16 %x, Dist2 %x",
					trial, i, q, xs[i], ys[i], zs[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		for g := range mins {
			if math.Float64bits(mins[g]) != math.Float64bits(wantMins[g]) {
				t.Fatalf("trial %d group %d: min %v, reference %v", trial, g, mins[g], wantMins[g])
			}
		}
		// Minima of NaN-free groups: the k-th smallest, for each k.
		if w := kthRef(mins, k); math.Float64bits(kth) != math.Float64bits(w) {
			t.Fatalf("trial %d k=%d: k-th smallest minimum %v, sorted %v (minima %v)", trial, k, kth, w, mins)
		}
	}
}

// TestDist2Min16NeverTakesNaN gives every group NaN distances — NaN
// coordinates, and ∞-∞ — beside finite ones: no minimum may be a NaN,
// and a group of NaNs alone stays +Inf.
func TestDist2Min16NeverTakesNaN(t *testing.T) {
	if !Vectorized() {
		t.Skip("the float64 kernels have only the vector form")
	}
	const n = 48
	xs, ys, zs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		switch {
		case i%16 == 15: // a group of NaNs alone
			xs[i] = math.NaN()
		case i < 16:
			xs[i] = math.NaN()
		case i < 32:
			ys[i] = math.Inf(1) // ∞ - ∞ with the query below
		default:
			xs[i] = float64(i)
		}
	}
	var mins [16]float64
	d2 := make([]float64, n)
	kth := Dist2Min16(d2, xs, ys, zs, 0, math.Inf(1), 0, &mins, 16)
	for g, m := range mins {
		if math.IsNaN(m) {
			t.Fatalf("group %d: minimum is NaN", g)
		}
		if g == 15 && !math.IsInf(m, 1) {
			t.Fatalf("group 15 holds only NaNs, minimum %v, want +Inf", m)
		}
	}
	if !math.IsInf(kth, 1) {
		t.Fatalf("16th smallest minimum %v, want +Inf", kth)
	}
}

// selectLERef is SelectLE's scalar reference: the indices of the
// distances ≤ t, and their keys sorted.
func selectLERef(d2 []float64, t float64, lowMask uint64) (idx []int32, keys []uint64) {
	for i, d := range d2 {
		if d <= t {
			idx = append(idx, int32(i))
			keys = append(keys, math.Float64bits(d)&^lowMask|uint64(i))
		}
	}
	slices.Sort(keys)
	return idx, keys
}

// TestSelectLEMatchesReference holds SelectLE to the scalar reference
// over distances with NaNs, +Inf, equal values, ties at the threshold
// and every lane pattern: the selected indices always, and the keys by
// rank up to k+1 whenever at most 16 are selected.
func TestSelectLEMatchesReference(t *testing.T) {
	if !Vectorized() {
		t.Skip("the float64 kernels have only the vector form")
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		n := 8 * (1 + rng.Intn(40))
		lowMask := uint64(1)<<bits.Len(uint(n-1)) - 1
		d2 := make([]float64, n)
		for i := range d2 {
			switch rng.Intn(10) {
			case 0:
				d2[i] = math.NaN()
			case 1:
				d2[i] = math.Inf(1)
			case 2:
				d2[i] = 0
			default:
				d2[i] = float64(rng.Intn(20)) + float64(rng.Intn(4))*0x1p-50
			}
		}
		th := float64(rng.Intn(22))
		switch trial % 9 {
		case 0:
			th = math.Inf(1)
		case 1:
			th = -1
		case 2:
			th = float64(rng.Intn(3)) // few selected
		}
		k := 1 + rng.Intn(16)
		wantIdx, wantKeys := selectLERef(d2, th, lowMask)
		idx := make([]int32, n)
		var top [17]uint64
		for i := range top {
			top[i] = 0xdead
		}
		m := SelectLE(idx, d2, th, lowMask, k, &top)
		if m != len(wantIdx) || !slices.Equal(idx[:m], wantIdx) {
			t.Fatalf("trial %d t=%v: SelectLE picked %v, want %v", trial, th, idx[:m], wantIdx)
		}
		if m == 0 || m > 16 {
			continue
		}
		for r := 0; r < min(m, k+1); r++ {
			if top[r] != wantKeys[r] {
				t.Fatalf("trial %d m=%d k=%d: top[%d] = %x, want %x", trial, m, k, r, top[r], wantKeys[r])
			}
		}
		if m <= k && top[k] != math.MaxUint64 {
			t.Fatalf("trial %d m=%d k=%d: top[k] = %x, want all ones", trial, m, k, top[k])
		}
	}
}
