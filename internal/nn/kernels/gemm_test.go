package kernels

import (
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

func TestGemmPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := dims(mRaw, nRaw, kRaw)
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		bias := randSlice(rng, n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		refGemm(m, n, k, a, b, bias, want)
		GemmPacked(m, n, k, a, PackB(k, n, b, make([]float32, PackedLen(k, n))), bias, got, make([]float32, TailLen(k)))
		for i := range want {
			if got[i] != want[i] {
				t.Logf("m=%d n=%d k=%d: got[%d]=%v want %v", m, n, k, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmAutoMatchesReferenceBothPaths(t *testing.T) {
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
}

// TestGemmPackedRemainderZeroAllocs pins the walkway regime: batches
// below one 8-row tile, and a conv image one row past a tile multiple
// (15×15 = 225), run their remainder rows on the vector tile from caller
// scratch — no allocation — and still match the reference bit for bit.
// CI's alloc-gate runs it.
func TestGemmPackedRemainderZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 63
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 225} {
		for _, n := range []int{8, 16, 128} {
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			bias := randSlice(rng, n)
			want := make([]float32, m*n)
			refGemm(m, n, k, a, b, bias, want)
			bp := PackB(k, n, b, make([]float32, PackedLen(k, n)))
			tail := make([]float32, TailLen(k))
			got := make([]float32, m*n)
			allocs := testing.AllocsPerRun(20, func() {
				GemmPacked(m, n, k, a, bp, bias, got, tail)
			})
			if allocs != 0 {
				t.Errorf("m=%d n=%d: GemmPacked allocates %.1f times per call, want 0", m, n, allocs)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d n=%d: got[%d]=%v want %v", m, n, i, got[i], want[i])
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
	rng := rand.New(rand.NewSource(5))
	f := func(hRaw, wRaw, cRaw, kRaw uint8) bool {
		h, w, cin := int(hRaw%9)+1, int(wRaw%9)+1, int(cRaw%5)+1
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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
		GemmPacked(m, n, k, a, bp, bias, c, tail)
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
