package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// randCoords fills three coordinate slices with values drawn from the
// given generator, mixing magnitudes so tails, denormals, and ordinary
// campus-scale coordinates all appear.
func randCoords(rng *rand.Rand, n int) (xs, ys, zs []float32) {
	xs = make([]float32, n)
	ys = make([]float32, n)
	zs = make([]float32, n)
	for i := 0; i < n; i++ {
		xs[i] = randVal(rng)
		ys[i] = randVal(rng)
		zs[i] = randVal(rng)
	}
	return xs, ys, zs
}

func randVal(rng *rand.Rand) float32 {
	switch rng.Intn(10) {
	case 0:
		// Denormal-range magnitudes.
		return float32(rng.NormFloat64()) * 1e-40
	case 1:
		return 0
	case 2:
		return float32(math.Copysign(0, -1)) // -0
	default:
		return float32(rng.NormFloat64() * 40) // campus-scale metres
	}
}

func TestDist2MatchesReference(t *testing.T) {
	if !Vectorized() {
		t.Skip("no vector unit; dispatch already uses the reference")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 100; n++ {
		xs, ys, zs := randCoords(rng, n)
		qx, qy, qz := randVal(rng), randVal(rng), randVal(rng)

		want := make([]float32, n)
		dist2Ref(want, xs, ys, zs, qx, qy, qz)

		got := make([]float32, n)
		Dist2(got, xs, ys, zs, qx, qy, qz)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d i=%d: Dist2 = %x, reference = %x",
					n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestCountDist2LEMatchesReference(t *testing.T) {
	if !Vectorized() {
		t.Skip("no vector unit; dispatch already uses the reference")
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 100; n++ {
		xs, ys, zs := randCoords(rng, n)
		qx, qy, qz := randVal(rng), randVal(rng), randVal(rng)

		// Exercise ε-boundary thresholds: pick t equal to an actual
		// computed distance so the ≤ comparison sits exactly on a value,
		// plus a generic threshold.
		d := make([]float32, n)
		dist2Ref(d, xs, ys, zs, qx, qy, qz)
		thresholds := []float32{4, 0, float32(math.Inf(1))}
		if n > 0 {
			thresholds = append(thresholds, d[rng.Intn(n)])
		}
		for _, th := range thresholds {
			want := countLERef(xs, ys, zs, qx, qy, qz, th)
			got := CountDist2LE(xs, ys, zs, qx, qy, qz, th)
			if got != want {
				t.Fatalf("n=%d t=%g: CountDist2LE = %d, reference = %d", n, th, got, want)
			}
		}
	}
}

func TestMaskDist2LEMatchesReference(t *testing.T) {
	if !Vectorized() {
		t.Skip("no vector unit; dispatch already uses the reference")
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 100; n++ {
		xs, ys, zs := randCoords(rng, n)
		qx, qy, qz := randVal(rng), randVal(rng), randVal(rng)

		// Boundary thresholds as in the count test: an actual computed
		// distance so ≤ sits exactly on a value, plus generic ones.
		d := make([]float32, n)
		dist2Ref(d, xs, ys, zs, qx, qy, qz)
		thresholds := []float32{4, 0, float32(math.Inf(1))}
		if n > 0 {
			thresholds = append(thresholds, d[rng.Intn(n)])
		}
		nb := (n + 7) / 8
		for _, tHi := range thresholds {
			for _, tLo := range thresholds {
				wantHi, wantLo := make([]uint8, nb), make([]uint8, nb)
				maskLERef(wantHi, wantLo, xs, ys, zs, qx, qy, qz, tHi, tLo)
				gotHi, gotLo := make([]uint8, nb), make([]uint8, nb)
				MaskDist2LE(gotHi, gotLo, xs, ys, zs, qx, qy, qz, tHi, tLo)
				for b := 0; b < nb; b++ {
					if gotHi[b] != wantHi[b] || gotLo[b] != wantLo[b] {
						t.Fatalf("n=%d tHi=%g tLo=%g b=%d: MaskDist2LE = %02x/%02x, reference = %02x/%02x",
							n, tHi, tLo, b, gotHi[b], gotLo[b], wantHi[b], wantLo[b])
					}
				}
			}
		}
	}
}

func TestMaskDist2LENaNSetsNoBits(t *testing.T) {
	nan := float32(math.NaN())
	xs := []float32{nan, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float32, len(xs))
	zs := make([]float32, len(xs))
	hi := make([]uint8, 2)
	lo := make([]uint8, 2)
	inf := float32(math.Inf(1))
	MaskDist2LE(hi, lo, xs, ys, zs, 0, 0, 0, inf, inf)
	if hi[0] != 0xfe || hi[1] != 0x03 || lo[0] != 0xfe || lo[1] != 0x03 {
		t.Fatalf("MaskDist2LE with NaN input = %02x %02x / %02x %02x, want fe 03 twice",
			hi[0], hi[1], lo[0], lo[1])
	}
}

func TestCountDist2LENaNNeverCounts(t *testing.T) {
	nan := float32(math.NaN())
	xs := []float32{nan, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float32, len(xs))
	zs := make([]float32, len(xs))
	got := CountDist2LE(xs, ys, zs, 0, 0, 0, float32(math.Inf(1)))
	if got != len(xs)-1 {
		t.Fatalf("CountDist2LE with NaN input = %d, want %d", got, len(xs)-1)
	}
}

func TestSetVectorizedToggle(t *testing.T) {
	orig := Vectorized()
	defer SetVectorized(orig)

	if prev := SetVectorized(false); prev != orig {
		t.Fatalf("SetVectorized returned prev=%v, want %v", prev, orig)
	}
	if Vectorized() {
		t.Fatal("Vectorized() true after SetVectorized(false)")
	}
	SetVectorized(true)
	// On AVX hardware this re-enables; elsewhere it must stay off
	// rather than faulting.
	if Vectorized() != useAVX2 {
		t.Fatalf("Vectorized() = %v after SetVectorized(true), want %v", Vectorized(), useAVX2)
	}

	// The toggle must not change results.
	rng := rand.New(rand.NewSource(17))
	xs, ys, zs := randCoords(rng, 43)
	a := make([]float32, len(xs))
	b := make([]float32, len(xs))
	SetVectorized(true)
	Dist2(a, xs, ys, zs, 1, -2, 0.5)
	ca := CountDist2LE(xs, ys, zs, 1, -2, 0.5, 9)
	SetVectorized(false)
	Dist2(b, xs, ys, zs, 1, -2, 0.5)
	cb := CountDist2LE(xs, ys, zs, 1, -2, 0.5, 9)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("i=%d: vectorized %x != scalar %x", i, math.Float32bits(a[i]), math.Float32bits(b[i]))
		}
	}
	if ca != cb {
		t.Fatalf("CountDist2LE vectorized %d != scalar %d", ca, cb)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dist2":        func() { Dist2(make([]float32, 3), make([]float32, 2), make([]float32, 3), make([]float32, 3), 0, 0, 0) },
		"CountDist2LE": func() { CountDist2LE(make([]float32, 3), make([]float32, 2), make([]float32, 3), 0, 0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkDist2(b *testing.B) {
	benchSizes := []int{64, 1024, 16384}
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(1))
		xs, ys, zs := randCoords(rng, n)
		dst := make([]float32, n)
		for _, vec := range []bool{false, true} {
			name := "scalar"
			if vec {
				name = "vector"
			}
			b.Run(benchName(name, n), func(b *testing.B) {
				prev := SetVectorized(vec)
				defer SetVectorized(prev)
				b.SetBytes(int64(n * 12))
				for i := 0; i < b.N; i++ {
					Dist2(dst, xs, ys, zs, 1, 2, 3)
				}
			})
		}
	}
}

func BenchmarkCountDist2LE(b *testing.B) {
	n := 16384
	rng := rand.New(rand.NewSource(2))
	xs, ys, zs := randCoords(rng, n)
	for _, vec := range []bool{false, true} {
		name := "scalar"
		if vec {
			name = "vector"
		}
		b.Run(benchName(name, n), func(b *testing.B) {
			prev := SetVectorized(vec)
			defer SetVectorized(prev)
			b.SetBytes(int64(n * 12))
			for i := 0; i < b.N; i++ {
				CountDist2LE(xs, ys, zs, 1, 2, 3, 25)
			}
		})
	}
}

func benchName(kind string, n int) string {
	switch n {
	case 64:
		return kind + "/64"
	case 1024:
		return kind + "/1k"
	case 16384:
		return kind + "/16k"
	}
	return kind
}
