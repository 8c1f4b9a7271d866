package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refGemm is the textbook loop the kernels promise to match bit for bit:
// bias first, then k strictly ascending per output element.
func refGemm(m, n, k int, a, b, bias, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := float32(0)
			if bias != nil {
				acc = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				acc += a[i*k+kk] * b[kk*n+j]
			}
			c[i*n+j] = acc
		}
	}
}

func refGemmInt8(m, n, k int, a []int8, aZero int32, b []int8, bias, c []int32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			if bias != nil {
				acc = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				acc += (int32(a[i*k+kk]) - aZero) * int32(b[kk*n+j])
			}
			c[i*n+j] = acc
		}
	}
}

// dims maps three raw uint8s onto kernel-exercising sizes: remainders in
// both blocked dimensions, K of zero, and single rows/columns all occur.
func dims(mRaw, nRaw, kRaw uint8) (m, n, k int) {
	return int(mRaw%21) + 1, int(nRaw%21) + 1, int(kRaw % 40)
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// onEachTile runs f on the AVX tile (where the CPU has it) and on the
// pure-Go tile, the only one an arm64 pole runs.
func onEachTile(t *testing.T, f func(t *testing.T)) {
	for _, avx := range []bool{true, false} {
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, func(t *testing.T) {
			defer SetAVX(SetAVX(avx))
			f(t)
		})
	}
}

// refEpilogue applies GemmPacked's epilogue to refGemm's output the way
// the layers it stands for compute it: batch norm over running
// statistics, then the training pass's v > 0 test.
func refEpilogue(m, n int, ep, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			xh := (c[i*n+j] - ep[j]) * ep[n+j]
			y := ep[2*n+j]*xh + ep[3*n+j]
			if !(y > 0) {
				y = 0
			}
			c[i*n+j] = y
		}
	}
}

// randEpilogue draws an epilogue: any mean and beta, a positive invStd,
// gamma of either sign.
func randEpilogue(rng *rand.Rand, n int) []float32 {
	ep := randSlice(rng, EpilogueLen(n))
	for j := n; j < 2*n; j++ {
		ep[j] = float32(0.25 + rng.Float64())
	}
	return ep
}

func TestGemmPackedMatchesReference(t *testing.T) {
	onEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		f := func(mRaw, nRaw, kRaw uint8, withEp bool) bool {
			m, n, k := dims(mRaw, nRaw, kRaw)
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			bias := randSlice(rng, n)
			var ep []float32
			if withEp {
				ep = randEpilogue(rng, n)
			}
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			refGemm(m, n, k, a, b, bias, want)
			if withEp {
				refEpilogue(m, n, ep, want)
			}
			GemmPacked(m, n, k, a, PackB(k, n, b, make([]float32, PackedLen(k, n))), bias, ep, got, make([]float32, TailLen(k)))
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Logf("m=%d n=%d k=%d epilogue=%v: got[%d]=%v want %v", m, n, k, withEp, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// edgeValues are the floats where a vector select or a bit trick could
// part from the scalar code: NaNs, both zeros, both infinities,
// subnormals and the extremes.
var edgeValues = []float32{
	float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// TestGemmPackedEpilogueEdgeValues feeds the epilogue accumulators that
// are NaN, ±0, ±Inf and subnormal — A rows of zeros and one edge value
// against a unit column of B, on bias 0, −0 and 1 — and requires the
// reference's bits on both tiles.
func TestGemmPackedEpilogueEdgeValues(t *testing.T) {
	onEachTile(t, func(t *testing.T) {
		const n, k = 16, 3
		m := len(edgeValues)
		a := make([]float32, m*k)
		for i, v := range edgeValues {
			a[i*k+1] = v
		}
		b := make([]float32, k*n)
		for j := 0; j < n; j++ {
			b[k/2*n+j] = 1
		}
		ep := make([]float32, EpilogueLen(n))
		for j := 0; j < n; j++ {
			// Identity on half the columns, a shift and a sign flip on the rest.
			ep[n+j], ep[2*n+j] = 1, 1
			if j%2 == 1 {
				ep[j], ep[2*n+j], ep[3*n+j] = 0.5, -2, 1e-38
			}
		}
		for _, bv := range []float32{0, float32(math.Copysign(0, -1)), 1} {
			bias := make([]float32, n)
			for j := range bias {
				bias[j] = bv
			}
			want := make([]float32, m*n)
			refGemm(m, n, k, a, b, bias, want)
			refEpilogue(m, n, ep, want)
			got := make([]float32, m*n)
			GemmPacked(m, n, k, a, PackB(k, n, b, make([]float32, PackedLen(k, n))), bias, ep, got, make([]float32, TailLen(k)))
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("bias %v: row %d (a=%v) col %d: got %v (%#x) want %v (%#x)", bv, i/n, edgeValues[i/n], i%n,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	})
}

// TestGemmNaNsMeetInOneAdd pins the accumulation contract's one
// exception: where two NaNs meet in one add, here a NaN·0 or Inf·0
// product into an accumulator that is already NaN (a NaN bias of either
// sign, or a NaN product at an earlier k), the hardware returns the
// payload and sign of whichever operand comes first, and a tile may order
// acc + a·b differently from the reference. So on both tiles, and on the
// direct loop, an output must be NaN exactly where the reference's is,
// and every other output must carry the reference's bits.
func TestGemmNaNsMeetInOneAdd(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	onEachTile(t, func(t *testing.T) {
		const m, n, k = 11, 16, 3 // one 8-row tile and three remainder rows
		rng := rand.New(rand.NewSource(7))
		pick := func(vals ...float32) float32 { return vals[rng.Intn(len(vals))] }
		a := make([]float32, m*k)
		for i := range a {
			a[i] = pick(nan, inf, -inf, 0, 1, -1, 0.5, 2, -3, 0.25, 4, -0.5)
		}
		a[0], a[k] = nan, -inf // row 0 and row 1 open with a NaN·0 and an Inf·0
		b := make([]float32, k*n)
		for i := range b {
			b[i] = pick(0, 0, 1, -2, 0.5, 3, -1, nan)
		}
		for j := 0; j < n; j++ {
			b[j] = 0
		}
		bias := make([]float32, n)
		for j := range bias {
			bias[j] = []float32{nan, 0, 1, -1, -nan, 2, 0.5, -0.25}[j%8]
		}
		want := make([]float32, m*n)
		refGemm(m, n, k, a, b, bias, want)
		packed := make([]float32, m*n)
		GemmPacked(m, n, k, a, PackB(k, n, b, make([]float32, PackedLen(k, n))), bias, nil, packed, make([]float32, TailLen(k)))
		direct := make([]float32, m*n)
		Gemm(m, n, k, a, b, bias, direct, nil, nil)
		for name, got := range map[string][]float32{"packed": packed, "direct": direct} {
			for i, w := range want {
				g := got[i]
				if w != w {
					if g == g {
						t.Errorf("%s: row %d col %d = %v, want NaN", name, i/n, i%n, g)
					}
				} else if math.Float32bits(g) != math.Float32bits(w) {
					t.Errorf("%s: row %d col %d = %v, want %v", name, i/n, i%n, g, w)
				}
			}
		}
	})
}

func TestGemmAutoMatchesReferenceBothPaths(t *testing.T) {
	onEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, m := range []int{1, 2, PackMinRows - 1, PackMinRows, 17, 32} {
			n, k := 11, 23
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			bias := randSlice(rng, n)
			want := make([]float32, m*n)
			got := make([]float32, m*n)
			refGemm(m, n, k, a, b, bias, want)
			Gemm(m, n, k, a, b, bias, got, make([]float32, PackedLen(k, n)), make([]float32, TailLen(k)))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d: got[%d]=%v want %v", m, i, got[i], want[i])
				}
			}
			// nil pack buffer must select the direct path and still agree.
			for i := range got {
				got[i] = -1
			}
			Gemm(m, n, k, a, b, bias, got, nil, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d direct: got[%d]=%v want %v", m, i, got[i], want[i])
				}
			}
		}
	})
}

// TestGemmPackedRemainderZeroAllocs pins the walkway regime: batches
// below one 8-row tile, and a conv image one row past a tile multiple
// (15×15 = 225), run their remainder rows on the vector tile from caller
// scratch — no allocation — and still match the reference bit for bit,
// with and without the epilogue. CI's alloc-gate runs it.
func TestGemmPackedRemainderZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 63
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 225} {
		for _, n := range []int{8, 16, 128} {
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			bias := randSlice(rng, n)
			bp := PackB(k, n, b, make([]float32, PackedLen(k, n)))
			tail := make([]float32, TailLen(k))
			for _, ep := range [][]float32{nil, randEpilogue(rng, n)} {
				want := make([]float32, m*n)
				refGemm(m, n, k, a, b, bias, want)
				if ep != nil {
					refEpilogue(m, n, ep, want)
				}
				got := make([]float32, m*n)
				allocs := testing.AllocsPerRun(20, func() {
					GemmPacked(m, n, k, a, bp, bias, ep, got, tail)
				})
				if allocs != 0 {
					t.Errorf("m=%d n=%d: GemmPacked allocates %.1f times per call, want 0", m, n, allocs)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m=%d n=%d epilogue=%v: got[%d]=%v want %v", m, n, ep != nil, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestGemmNilBiasZeroInitializes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 9, 10, 7
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := make([]float32, m*n)
	refGemm(m, n, k, a, b, nil, want)
	got := make([]float32, m*n)
	for i := range got {
		got[i] = 99 // stale output must be overwritten, not accumulated
	}
	Gemm(m, n, k, a, b, nil, got, make([]float32, PackedLen(k, n)), make([]float32, TailLen(k)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestGemmInt8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(mRaw, nRaw, kRaw uint8, zRaw int8) bool {
		m, n, k := dims(mRaw, nRaw, kRaw)
		aZero := int32(zRaw)
		a := make([]int8, m*k)
		b := make([]int8, k*n)
		bias := make([]int32, n)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
		}
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
		for i := range bias {
			bias[i] = int32(rng.Intn(4096) - 2048)
		}
		want := make([]int32, m*n)
		got := make([]int32, m*n)
		refGemmInt8(m, n, k, a, aZero, b, bias, want)
		GemmInt8(m, n, k, a, aZero, b, bias, got, make([]int8, PackedLen(k, n)))
		for i := range want {
			if got[i] != want[i] {
				t.Logf("m=%d n=%d k=%d zero=%d: got[%d]=%d want %d", m, n, k, aZero, i, got[i], want[i])
				return false
			}
		}
		// Direct path.
		for i := range got {
			got[i] = -7
		}
		GemmInt8(m, n, k, a, aZero, b, bias, got, nil)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// refIm2col gathers the patch matrix tap by tap, the obviously-correct way.
func refIm2col(h, w, cin, kh, kw int, src []float32) []float32 {
	k := kh * kw * cin
	ph, pw := kh/2, kw/2
	dst := make([]float32, h*w*k)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					iy, ix := y+ky-ph, x+kx-pw
					for ci := 0; ci < cin; ci++ {
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = src[(iy*w+ix)*cin+ci]
						}
						dst[(y*w+x)*k+(ky*kw+kx)*cin+ci] = v
					}
				}
			}
		}
	}
	return dst
}

func TestIm2colMatchesReference(t *testing.T) {
	onEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		f := func(hRaw, wRaw, cRaw, kRaw uint8) bool {
			h, w, cin := int(hRaw%17)+1, int(wRaw%17)+1, int(cRaw%17)+1
			ks := []int{1, 3, 5}
			kh := ks[int(kRaw)%3]
			kw := ks[int(kRaw/3)%3]
			src := randSlice(rng, h*w*cin)
			want := refIm2col(h, w, cin, kh, kw, src)
			got := make([]float32, len(want))
			for i := range got {
				got[i] = 42 // stale data must be fully overwritten
			}
			Im2col(h, w, cin, kh, kw, src, got)
			for i := range want {
				if got[i] != want[i] {
					t.Logf("h=%d w=%d cin=%d kh=%d kw=%d: [%d] got %v want %v", h, w, cin, kh, kw, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// refMaxPool is the training pass's pool: start from the window's
// top-left input, take v when v > bv, in row order.
func refMaxPool(n, h, w, c int, src []float32) []float32 {
	oh, ow := h/2, w/2
	dst := make([]float32, n*oh*ow*c)
	o := 0
	for ni := 0; ni < n; ni++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for ci := 0; ci < c; ci++ {
					bv := src[((ni*h+2*y)*w+2*x)*c+ci]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							if v := src[((ni*h+2*y+dy)*w+2*x+dx)*c+ci]; v > bv {
								bv = v
							}
						}
					}
					dst[o] = bv
					o++
				}
			}
		}
	}
	return dst
}

// TestMaxPool2x2MatchesReference pins the branch-free pool, on both
// tiles, to the scalar select bit for bit: random maps with odd sides
// and channel counts on and off the vector width, and maps drawn from
// edgeValues, where NaN must never win and the first of two zeros must
// stay.
func TestMaxPool2x2MatchesReference(t *testing.T) {
	onEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 200; trial++ {
			n, h, w := rng.Intn(3)+1, rng.Intn(9)+2, rng.Intn(9)+2
			c := []int{1, 3, 8, 16, 24}[rng.Intn(5)]
			src := randSlice(rng, n*h*w*c)
			if trial%2 == 1 {
				for i := range src {
					src[i] = edgeValues[rng.Intn(len(edgeValues))]
				}
			}
			want := refMaxPool(n, h, w, c, src)
			got := make([]float32, len(want))
			MaxPool2x2(n, h, w, c, src, got)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d h=%d w=%d c=%d: [%d] got %v (%#x) want %v (%#x)",
						n, h, w, c, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	})
}

func TestIm2colInt8PadsWithZeroPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h, w, cin, kh, kw := 4, 5, 3, 3, 3
	const zp = int8(-13)
	src := make([]int8, h*w*cin)
	for i := range src {
		src[i] = int8(rng.Intn(256) - 128)
	}
	k := kh * kw * cin
	got := make([]int8, h*w*k)
	Im2colInt8(h, w, cin, kh, kw, zp, src, got)
	ph, pw := kh/2, kw/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					iy, ix := y+ky-ph, x+kx-pw
					for ci := 0; ci < cin; ci++ {
						want := zp
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							want = src[(iy*w+ix)*cin+ci]
						}
						if v := got[(y*w+x)*k+(ky*kw+kx)*cin+ci]; v != want {
							t.Fatalf("(%d,%d) tap (%d,%d,%d): got %d want %d", y, x, ky, kx, ci, v, want)
						}
					}
				}
			}
		}
	}
}

func BenchmarkGemmPacked(b *testing.B) {
	// Conv-shaped GEMM: one 17×17 image of HAWC's first layer.
	m, n, k := 289, 8, 63
	rng := rand.New(rand.NewSource(7))
	a := randSlice(rng, m*k)
	w := randSlice(rng, k*n)
	bias := randSlice(rng, n)
	c := make([]float32, m*n)
	bp := PackB(k, n, w, make([]float32, PackedLen(k, n)))
	tail := make([]float32, TailLen(k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmPacked(m, n, k, a, bp, bias, nil, c, tail)
	}
}

func BenchmarkGemmDirect(b *testing.B) {
	m, n, k := 289, 8, 63
	rng := rand.New(rand.NewSource(8))
	a := randSlice(rng, m*k)
	w := randSlice(rng, k*n)
	bias := randSlice(rng, n)
	c := make([]float32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmDirect(m, n, k, a, w, bias, c)
	}
}
