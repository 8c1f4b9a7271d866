package kernels

import "math"

// MaxPool2x2 writes the 2×2, stride-2 max pool of n channel-last
// [h][w][c] images in src to dst ([n][h/2][w/2][c], fully overwritten);
// odd trailing rows and columns are dropped. Each output starts from its
// window's top-left input and takes each of the other three, in row
// order, when v > bv — so NaN never wins a comparison and of two zeros
// the first stays, as in the training pass. The select carries no
// data-dependent branch: post-ReLU maps are half zeros, on which a
// branch mispredicts about as often as it goes either way.
func MaxPool2x2(n, h, w, c int, src, dst []float32) {
	oh, ow := h/2, w/2
	for ni := 0; ni < n; ni++ {
		for y := 0; y < oh; y++ {
			in := src[((ni*h+2*y)*w)*c : ((ni*h+2*y+2)*w)*c]
			out := dst[((ni*oh+y)*ow)*c : ((ni*oh+y+1)*ow)*c]
			if useAVX && c > 0 && c%8 == 0 && ow > 0 {
				maxPoolRowAVX(&out[0], &in[0], ow, c, w*c)
				continue
			}
			for x := 0; x < ow; x++ {
				p0, p1 := in[2*x*c:(2*x+2)*c], in[(w+2*x)*c:(w+2*x+2)*c]
				o := out[x*c : (x+1)*c]
				for ci := range o {
					bv := p0[ci]
					bv = greater(p0[c+ci], bv)
					bv = greater(p1[ci], bv)
					o[ci] = greater(p1[c+ci], bv)
				}
			}
		}
	}
}

// greater returns v > bv ? v : bv, selecting on the bits with a mask
// the comparison sets, not a branch.
func greater(v, bv float32) float32 {
	var m uint32
	if v > bv {
		m = ^uint32(0)
	}
	b := math.Float32bits(bv)
	return math.Float32frombits(b ^ (b^math.Float32bits(v))&m)
}
