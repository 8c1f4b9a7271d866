// Package kernels provides the packed, register-blocked matrix kernels
// behind the inference hot path: im2col + GEMM for float32 convolution and
// dense layers, and an int8/int32 GEMM for the quantized graph.
//
// Accumulation contract: every kernel computes each output element as
// bias[j] followed by adds of a[i][k]·b[k][j] in strictly ascending k —
// the same operation sequence as the textbook scalar loops — so the GEMM
// path is bit-identical to the naive reference for float32 (and exactly
// equal, trivially, for the integer kernels), NaN payload and sign
// excepted: where two NaNs meet in one add, the hardware keeps the
// payload of whichever operand comes first, and a tile may order
// acc + a·b either way, so an output is NaN wherever the reference's is
// NaN, not necessarily the same NaN (TestGemmNaNsMeetInOneAdd). Register
// blocking tiles the i and j dimensions only; it never reorders the k
// accumulation of a single output element. With AVX the float kernel runs every full panel
// on its 8×8 vector tile, the M mod 8 remainder rows included: they run
// zero-padded to eight rows into a scratch C tile, and since rows and
// lanes accumulate independently the padding changes no value. So a
// frame's batch of a handful of clusters, and the 225th row of every
// 15×15 conv image, are vector work too. The float tile can finish each
// output with a batch norm and a ReLU before it stores it (GemmPacked's
// epilogue), so a Conv2D→BatchNorm→ReLU stack writes its activations
// once.
//
// Buffers (packed weight panels, im2col matrices, the remainder tile) are
// caller-provided so the hot path stays allocation-free: internal/nn
// draws them from its Scratch arena and internal/quant from a pooled
// scratch.
package kernels

import "math"

// Micro-tile dimensions. MR rows of A are streamed against an NR-wide
// packed column panel of B, keeping MR·NR accumulators live across the
// whole k loop so C is touched once per tile instead of once per k.
const (
	// MR is the number of A rows per micro-tile.
	MR = 4
	// NR is the packed panel width (B columns per micro-tile).
	NR = 8
)

// PackMinRows is the M below which Gemm does not pack B. With AVX every
// row of a full panel runs on the 8×8 vector tile (the remainder rows
// padded, see GemmPacked), which repays the O(K·N) pack from two rows up:
// measured on HAWC's 784→128 Dense layer (2-vCPU Xeon), packing loses at
// M = 1 (~155 vs ~100 µs) and wins from M = 2 (~140 vs ~285 µs). Without
// AVX rows below one MR-row micro-tile run row by row on the packed
// panel, so Gemm keeps them on the direct loop.
const PackMinRows = 2

// PackedLen returns the buffer length PackB needs for a K×N matrix: K
// rows of ceil(N/NR) zero-padded NR-wide panels.
func PackedLen(k, n int) int {
	return k * ((n + NR - 1) / NR) * NR
}

// PackB packs the row-major K×N matrix b into NR-wide column panels:
// panel p holds columns [p·NR, p·NR+NR) contiguously per k, so the
// micro-kernel reads one cache line per k step. Columns beyond N are
// zero-filled. dst must have at least PackedLen(k, n) elements; the
// packed slice is returned.
func PackB(k, n int, b, dst []float32) []float32 {
	panels := (n + NR - 1) / NR
	dst = dst[:panels*k*NR]
	for p := 0; p < panels; p++ {
		j := p * NR
		w := n - j
		if w > NR {
			w = NR
		}
		out := dst[p*k*NR : (p+1)*k*NR]
		for kk := 0; kk < k; kk++ {
			o := out[kk*NR : kk*NR+NR]
			copy(o, b[kk*n+j:kk*n+j+w])
			for t := w; t < NR; t++ {
				o[t] = 0
			}
		}
	}
	return dst
}

// TailLen returns the scratch length GemmPacked needs at depth k: a
// zero-padded 8-row copy of A's remainder rows and an 8×8 C tile, so the
// rows past the last full tile run on the vector tile too.
func TailLen(k int) int {
	return 2*MR*k + 2*MR*NR
}

// Packs reports whether an M-row A is large enough for the packed
// kernel to pay off: from PackMinRows rows with AVX, from one MR-row
// micro-tile without. Below that Gemm runs its direct loop.
func Packs(m int) bool {
	return m >= PackMinRows && (useAVX || m >= MR)
}

// Gemm computes C = A·B + bias for tight row-major A (M×K), B (K×N), and
// C (M×N); bias has length N (nil means zero). When M is large enough for
// packing to pay off (Packs) and pack (of at least PackedLen(k, n)
// elements) is provided, B is packed and the register-blocked path runs,
// with tail (TailLen(k) elements) as its remainder scratch; otherwise the
// direct loop runs. Both paths share the accumulation contract, so the
// choice never changes the result.
func Gemm(m, n, k int, a, b, bias, c []float32, pack, tail []float32) {
	if Packs(m) && pack != nil {
		GemmPacked(m, n, k, a, PackB(k, n, b, pack), bias, nil, c, tail)
		return
	}
	gemmDirect(m, n, k, a, b, bias, c)
}

// gemmDirect is the unpacked fallback: a broadcast-axpy loop over B rows.
func gemmDirect(m, n, k int, a, b, bias, c []float32) {
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		if bias != nil {
			copy(ci, bias)
		} else {
			for t := range ci {
				ci[t] = 0
			}
		}
		ai := a[i*k : i*k+k]
		for kk, av := range ai {
			bk := b[kk*n : kk*n+n]
			for j, bv := range bk {
				ci[j] += av * bv
			}
		}
	}
}

// EpilogueLen returns the length of GemmPacked's epilogue for N
// columns: four N-long rows, mean, invStd, gamma and beta.
func EpilogueLen(n int) int { return 4 * n }

// GemmPacked computes C = A·B + bias with B pre-packed by PackB. A is
// row-major M×K, C row-major M×N. The same packed B may be reused across
// many calls (the convolution path packs once per layer and runs one GEMM
// per image). tail is caller scratch of TailLen(k) elements.
//
// The micro-kernels start their accumulators from the bias (zero when
// bias is nil), so C is written once per tile and never read. When ep is
// non-nil (EpilogueLen(n) elements: rows mean, invStd, gamma, beta) each
// output v leaves the tile as
//
//	Rectify(gamma[j]·((v−mean[j])·invStd[j]) + beta[j])
//
// — a batch norm over running statistics followed by a ReLU, the same
// operations in the same order as running those layers over C.
//
// With AVX, full panels run on the 8×8 vector tile, including the
// M mod 8 rows past the last full tile: they are copied once into a
// zero-padded 8-row A and run into an 8×8 C tile. Each lane and each row
// of the tile accumulates independently, so the padding rows change no
// value.
func GemmPacked(m, n, k int, a, bp, bias, ep, c, tail []float32) {
	panels := (n + NR - 1) / NR
	avx := useAVX && k > 0
	full := m
	var ta, tc []float32
	if avx {
		full = m &^ (2*MR - 1)
		if r := m - full; r > 0 {
			ta, tc = tail[:2*MR*k], tail[2*MR*k:TailLen(k)]
			copy(ta, a[full*k:m*k])
			clear(ta[r*k:])
		}
	}
	for p := 0; p < panels; p++ {
		j := p * NR
		w := min(NR, n-j)
		panel := bp[p*k*NR : (p+1)*k*NR]
		bj := zeros[:w]
		if bias != nil {
			bj = bias[j : j+w]
		}
		i := 0
		if w == NR {
			if avx {
				var e *float32
				if ep != nil {
					e = &ep[j]
				}
				for ; i < full; i += 2 * MR {
					micro8x8avx(k, &a[i*k], k, &panel[0], &bj[0], &c[i*n+j], n, e, n)
				}
				if ta != nil {
					micro8x8avx(k, &ta[0], k, &panel[0], &bj[0], &tc[0], NR, e, n)
					for t := 0; t < m-full; t++ {
						copy(c[(full+t)*n+j:(full+t)*n+j+NR], tc[t*NR:])
					}
					i = m
				}
			}
			for ; i+MR <= m; i += MR {
				c0, c1, c2, c3 := c[i*n+j:i*n+j+NR], c[(i+1)*n+j:(i+1)*n+j+NR], c[(i+2)*n+j:(i+2)*n+j+NR], c[(i+3)*n+j:(i+3)*n+j+NR]
				micro4x8(k,
					a[i*k:i*k+k], a[(i+1)*k:(i+1)*k+k], a[(i+2)*k:(i+2)*k+k], a[(i+3)*k:(i+3)*k+k],
					panel, bj, c0, c1, c2, c3)
				if ep != nil {
					for _, ci := range [MR][]float32{c0, c1, c2, c3} {
						epilogue(ci, ep, j, n)
					}
				}
			}
		}
		for ; i < m; i++ {
			ci := c[i*n+j : i*n+j+w]
			microRow(k, a[i*k:i*k+k], panel, bj, ci)
			if ep != nil {
				epilogue(ci, ep, j, n)
			}
		}
	}
}

// zeros seeds the accumulators of a GEMM without bias.
var zeros [NR]float32

// epilogue applies GemmPacked's per-column epilogue to c, the outputs of
// columns [j, j+len(c)) of one row; ep holds its rows of length n.
func epilogue(c, ep []float32, j, n int) {
	mean, invStd := ep[j:j+len(c)], ep[n+j:n+j+len(c)]
	g, bt := ep[2*n+j:2*n+j+len(c)], ep[3*n+j:3*n+j+len(c)]
	for t, v := range c {
		xh := (v - mean[t]) * invStd[t]
		c[t] = Rectify(g[t]*xh + bt[t])
	}
}

// Rectify is max(0, v) as a ReLU's training pass computes it: v when
// v > 0, else +0 (NaN included). It decides on the bits, without a
// data-dependent branch: v > 0 exactly when its bits, read unsigned, lie
// in [1, bits(+Inf)] — sign clear, nonzero, not NaN. The AVX tile's
// VMAXPS against +0 is the same function.
func Rectify(v float32) float32 {
	u := math.Float32bits(v)
	if u-1 >= 0x7f800000 {
		u = 0
	}
	return math.Float32frombits(u)
}

// micro4x8 accumulates a 4×8 C tile held in registers across the whole k
// loop, starting every row from the 8-wide bias b: per k step it loads
// one packed B line and four A scalars for 32 multiply-adds, instead of
// the naive loop's load/store of C per add.
func micro4x8(k int, a0, a1, a2, a3, panel, b []float32, c0, c1, c2, c3 []float32) {
	s00, s01, s02, s03, s04, s05, s06, s07 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	s10, s11, s12, s13, s14, s15, s16, s17 := s00, s01, s02, s03, s04, s05, s06, s07
	s20, s21, s22, s23, s24, s25, s26, s27 := s00, s01, s02, s03, s04, s05, s06, s07
	s30, s31, s32, s33, s34, s35, s36, s37 := s00, s01, s02, s03, s04, s05, s06, s07
	for kk := 0; kk < k; kk++ {
		b := panel[kk*NR : kk*NR+NR]
		b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		av := a0[kk]
		s00 += av * b0
		s01 += av * b1
		s02 += av * b2
		s03 += av * b3
		s04 += av * b4
		s05 += av * b5
		s06 += av * b6
		s07 += av * b7
		av = a1[kk]
		s10 += av * b0
		s11 += av * b1
		s12 += av * b2
		s13 += av * b3
		s14 += av * b4
		s15 += av * b5
		s16 += av * b6
		s17 += av * b7
		av = a2[kk]
		s20 += av * b0
		s21 += av * b1
		s22 += av * b2
		s23 += av * b3
		s24 += av * b4
		s25 += av * b5
		s26 += av * b6
		s27 += av * b7
		av = a3[kk]
		s30 += av * b0
		s31 += av * b1
		s32 += av * b2
		s33 += av * b3
		s34 += av * b4
		s35 += av * b5
		s36 += av * b6
		s37 += av * b7
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = s00, s01, s02, s03, s04, s05, s06, s07
	c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7] = s10, s11, s12, s13, s14, s15, s16, s17
	c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7] = s20, s21, s22, s23, s24, s25, s26, s27
	c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7] = s30, s31, s32, s33, s34, s35, s36, s37
}

// microRow handles M-remainder rows and N-remainder panels one row at a
// time against a packed panel of width w = len(ci) ≤ NR, starting from
// the bias b.
func microRow(k int, ai, panel, b, ci []float32) {
	for j := range ci {
		ci[j] = b[j]
	}
	for kk := 0; kk < k; kk++ {
		av := ai[kk]
		bk := panel[kk*NR : kk*NR+len(ci)]
		for j, bv := range bk {
			ci[j] += av * bv
		}
	}
}
