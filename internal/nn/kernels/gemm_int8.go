package kernels

// Int8 GEMM: int8 operands, int32 accumulation, with the input's affine
// zero point subtracted from A on the fly (weights are quantized
// symmetrically, so B has no zero point). Integer arithmetic is exact, so
// — unlike the float kernel, where the accumulation contract has to be
// engineered — any blocking is trivially bit-identical to the scalar
// loop; the kernels keep the same ascending-k structure anyway.

// PackBInt8 packs the row-major K×N int8 matrix b into NR-wide column
// panels (layout identical to PackB). dst must have at least
// PackedLen(k, n) elements; the packed slice is returned.
func PackBInt8(k, n int, b, dst []int8) []int8 {
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

// PackMinRowsInt8 is the M below which GemmInt8 does not pack B: the
// int8 kernel has no remainder tile, so with fewer rows than one MR-row
// micro-tile there is no cross-row reuse of a packed panel and the pack
// cost rivals the multiply (784→128: ~420 vs ~290 µs at M = 2).
const PackMinRowsInt8 = MR

// GemmInt8 computes C[i][j] = bias[j] + Σ_k (A[i][k]−aZero)·B[k][j] with
// int32 accumulation, for tight row-major A (M×K), B (K×N), C (M×N).
// When M is large enough and pack is provided, B is packed and the
// register-blocked path runs; otherwise the direct loop runs. bias may be
// nil for zero.
func GemmInt8(m, n, k int, a []int8, aZero int32, b []int8, bias, c []int32, pack []int8) {
	if m >= PackMinRowsInt8 && pack != nil {
		GemmInt8Packed(m, n, k, a, aZero, PackBInt8(k, n, b, pack), bias, c)
		return
	}
	gemmInt8Direct(m, n, k, a, aZero, b, bias, c)
}

// gemmInt8Direct is the unpacked fallback.
func gemmInt8Direct(m, n, k int, a []int8, aZero int32, b []int8, bias, c []int32) {
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
		for kk, aq := range ai {
			av := int32(aq) - aZero
			bk := b[kk*n : kk*n+n]
			for j, bv := range bk {
				ci[j] += av * int32(bv)
			}
		}
	}
}

// GemmInt8Packed computes the int8 GEMM with B pre-packed by PackBInt8.
// The convolution path packs once per layer and runs one GEMM per image.
func GemmInt8Packed(m, n, k int, a []int8, aZero int32, bp []int8, bias, c []int32) {
	panels := (n + NR - 1) / NR
	for p := 0; p < panels; p++ {
		j := p * NR
		w := n - j
		if w > NR {
			w = NR
		}
		panel := bp[p*k*NR : (p+1)*k*NR]
		for i := 0; i < m; i++ {
			ci := c[i*n+j : i*n+j+w]
			if bias != nil {
				copy(ci, bias[j:j+w])
			} else {
				for t := range ci {
					ci[t] = 0
				}
			}
		}
		i := 0
		if w == NR {
			if useAVX2 && k > 0 {
				for ; i+MR <= m; i += MR {
					micro4x8iavx(k, aZero, &a[i*k], k, &panel[0], &c[i*n+j], n)
				}
			}
			for ; i+MR <= m; i += MR {
				micro4x8i(k, aZero,
					a[i*k:i*k+k], a[(i+1)*k:(i+1)*k+k], a[(i+2)*k:(i+2)*k+k], a[(i+3)*k:(i+3)*k+k],
					panel,
					c[i*n+j:], c[(i+1)*n+j:], c[(i+2)*n+j:], c[(i+3)*n+j:])
			}
		}
		for ; i < m; i++ {
			microRowInt8(k, w, aZero, a[i*k:i*k+k], panel, c[i*n+j:i*n+j+w])
		}
	}
}

// micro4x8i is the int32-accumulator micro-kernel.
func micro4x8i(k int, aZero int32, a0, a1, a2, a3, panel []int8, c0, c1, c2, c3 []int32) {
	s00, s01, s02, s03, s04, s05, s06, s07 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	s10, s11, s12, s13, s14, s15, s16, s17 := c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7]
	s20, s21, s22, s23, s24, s25, s26, s27 := c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7]
	s30, s31, s32, s33, s34, s35, s36, s37 := c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7]
	for kk := 0; kk < k; kk++ {
		b := panel[kk*NR : kk*NR+NR]
		b0, b1, b2, b3 := int32(b[0]), int32(b[1]), int32(b[2]), int32(b[3])
		b4, b5, b6, b7 := int32(b[4]), int32(b[5]), int32(b[6]), int32(b[7])
		av := int32(a0[kk]) - aZero
		s00 += av * b0
		s01 += av * b1
		s02 += av * b2
		s03 += av * b3
		s04 += av * b4
		s05 += av * b5
		s06 += av * b6
		s07 += av * b7
		av = int32(a1[kk]) - aZero
		s10 += av * b0
		s11 += av * b1
		s12 += av * b2
		s13 += av * b3
		s14 += av * b4
		s15 += av * b5
		s16 += av * b6
		s17 += av * b7
		av = int32(a2[kk]) - aZero
		s20 += av * b0
		s21 += av * b1
		s22 += av * b2
		s23 += av * b3
		s24 += av * b4
		s25 += av * b5
		s26 += av * b6
		s27 += av * b7
		av = int32(a3[kk]) - aZero
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

// microRowInt8 handles remainder rows/panels for the int8 kernel.
func microRowInt8(k, w int, aZero int32, ai, panel []int8, ci []int32) {
	for kk := 0; kk < k; kk++ {
		av := int32(ai[kk]) - aZero
		b := panel[kk*NR : kk*NR+w]
		for j, bv := range b {
			ci[j] += av * int32(bv)
		}
	}
}
