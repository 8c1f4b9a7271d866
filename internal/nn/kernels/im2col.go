package kernels

// Im2col lowers one channel-last [H][W][Cin] image to the stride-1,
// same-padding patch matrix: row (y·W+x) of dst holds the KH·KW·Cin patch
// centered on (y, x) in (ky, kx, ci) order, with out-of-image taps set to
// zero. That tap order matches the scalar convolution loop, so a GEMM
// over the lowered matrix accumulates in exactly the naive order. dst
// needs H·W·KH·KW·Cin elements and is fully overwritten.
//
// The segments are a few dozen floats, so a runtime.memmove call per tap
// costs about as much as the copy. Each (y, ky) pair instead moves the ky
// segments of all interior columns — those whose kw taps lie in the
// image, contiguous in src — in one copyRows; each of the kw−1 border
// columns copies its in-image taps in one piece and zeroes the rest.
func Im2col(h, w, cin, kh, kw int, src, dst []float32) {
	k := kh * kw * cin
	ph, pw := kh/2, kw/2
	rowW := kw * cin
	x0, x1 := pw, w-kw+pw+1 // interior columns [x0, x1)
	for y := 0; y < h; y++ {
		for ky := 0; ky < kh; ky++ {
			out := dst[y*w*k+ky*rowW : (y+1)*w*k]
			iy := y + ky - ph
			if iy < 0 || iy >= h {
				for x := 0; x < w; x++ {
					fill(out[x*k:x*k+rowW], 0)
				}
				continue
			}
			line := src[iy*w*cin : (iy+1)*w*cin]
			if x1 > x0 {
				copyRows(out[x0*k:], k, line[(x0-pw)*cin:], cin, x1-x0, rowW)
			}
			for x := 0; x < w; x++ {
				if x == x0 && x1 > x0 {
					x = x1 - 1
					continue
				}
				// Taps [lo, hi) of this border column lie in the image.
				lo, hi := max(0, pw-x), min(kw, w-x+pw)
				seg := out[x*k : x*k+rowW]
				if hi <= lo {
					fill(seg, 0)
					continue
				}
				fill(seg[:lo*cin], 0)
				copy(seg[lo*cin:hi*cin], line[(x-pw+lo)*cin:])
				fill(seg[hi*cin:], 0)
			}
		}
	}
}

// copyRows copies rows segments of n floats, the r-th from src[r·lds:]
// to dst[r·ldd:], on the AVX path when a segment fills a vector.
func copyRows(dst []float32, ldd int, src []float32, lds, rows, n int) {
	d, s := dst[:(rows-1)*ldd+n], src[:(rows-1)*lds+n]
	if useAVX && n >= 8 {
		copyRowsAVX(&d[0], ldd, &s[0], lds, rows, n)
		return
	}
	for r := 0; r < rows; r++ {
		copy(d[r*ldd:r*ldd+n], s[r*lds:])
	}
}

// fill sets every element of dst to v. A loop storing a variable, not a
// literal zero, is not turned into a runtime.memclr call.
func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// Im2colInt8 is Im2col for int8 activations. Out-of-image taps are set to
// the activation zero point zp, so after the kernel subtracts the zero
// point they contribute exactly nothing — the same as the scalar loop
// skipping padded taps.
func Im2colInt8(h, w, cin, kh, kw int, zp int8, src, dst []int8) {
	k := kh * kw * cin
	ph, pw := kh/2, kw/2
	rowW := kw * cin
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			row := dst[(y*w+x)*k : (y*w+x)*k+k]
			x0 := x - pw
			for ky := 0; ky < kh; ky++ {
				iy := y + ky - ph
				seg := row[ky*rowW : ky*rowW+rowW]
				if iy < 0 || iy >= h {
					for t := range seg {
						seg[t] = zp
					}
					continue
				}
				if x0 >= 0 && x0+kw <= w {
					copy(seg, src[(iy*w+x0)*cin:(iy*w+x0)*cin+rowW])
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := x0 + kx
					tap := seg[kx*cin : kx*cin+cin]
					if ix < 0 || ix >= w {
						for t := range tap {
							tap[t] = zp
						}
					} else {
						copy(tap, src[(iy*w+ix)*cin:(iy*w+ix)*cin+cin])
					}
				}
			}
		}
	}
}
