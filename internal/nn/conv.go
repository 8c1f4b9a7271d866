package nn

import (
	"fmt"
	"math/rand"

	"hawccc/internal/nn/kernels"
	"hawccc/internal/tensor"
)

// Conv2D is a stride-1, same-padding 2D convolution over channel-last
// images: input [N, H, W, Cin] → output [N, H, W, Cout], kernel
// [KH, KW, Cin, Cout]. HAWC's network uses 3×3 kernels with stride 1
// (Section V), so those are the only hyperparameters this layer supports.
type Conv2D struct {
	KH, KW    int
	Cin, Cout int
	W, B      *Param

	x *tensor.Tensor
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a convolution with He initialization.
func NewConv2D(kh, kw, cin, cout int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		KH: kh, KW: kw, Cin: cin, Cout: cout,
		W: newParam("conv.w", kh, kw, cin, cout),
		B: newParam("conv.b", cout),
	}
	c.W.Value.HeInit(rng, kh*kw*cin)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%d,%d→%d)", c.KH, c.KW, c.Cin, c.Cout)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(3) != c.Cin {
		panic(fmt.Sprintf("nn: Conv2D input %v, want [N, H, W, %d]", x.Shape, c.Cin))
	}
	c.x = x
	out := tensor.New(x.Dim(0), x.Dim(1), x.Dim(2), c.Cout)
	// Training moves the weights every step, so Forward packs them into
	// the scratch arena per call rather than keeping them.
	sc := scratchPool.Get().(*Scratch)
	sc.reset()
	k := c.KH * c.KW * c.Cin
	c.conv(x, out, sc, kernels.PackB(k, c.Cout, c.W.Value.Data, sc.slice(kernels.PackedLen(k, c.Cout))), nil)
	scratchPool.Put(sc)
	return out
}

// apply computes the convolution of x into out ([N, H, W, Cout], fully
// overwritten) on the weight panels the layer keeps for the life of its
// weights (Param.packedB). apply writes no layer state, so it is safe to
// call concurrently from multiple goroutines (with distinct scratches).
func (c *Conv2D) apply(x, out *tensor.Tensor, s *Scratch) {
	c.conv(x, out, s, c.W.packedB(c.KH*c.KW*c.Cin, c.Cout), nil)
}

// conv computes the convolution via im2col + packed GEMM, with the
// kernel weights [KH·KW·Cin, Cout] in kernels.PackB panels bp: each image
// is lowered to its patch matrix and multiplied. The im2col tap order
// matches the accumulation order of the scalar reference (applyNaive in
// naive_test.go) and the GEMM accumulates k ascending, so the output is
// bit-identical to it. A non-nil ep is the GEMM's epilogue (a following
// BatchNorm and ReLU, see BatchNorm.epilogue), applied to each output on
// the tile. Workspace comes from the scratch arena.
func (c *Conv2D) conv(x, out *tensor.Tensor, s *Scratch, bp, ep []float32) {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	k := c.KH * c.KW * c.Cin
	m := h * w
	col := s.slice(m * k)
	tail := s.slice(kernels.TailLen(k))
	bd := c.B.Value.Data
	for ni := 0; ni < n; ni++ {
		kernels.Im2col(h, w, c.Cin, c.KH, c.KW, x.Data[ni*m*c.Cin:(ni+1)*m*c.Cin], col)
		kernels.GemmPacked(m, c.Cout, k, col, bp, bd, ep, out.Data[ni*m*c.Cout:(ni+1)*m*c.Cout], tail)
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.x
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	dx := tensor.New(n, h, w, c.Cin)
	ph, pw := c.KH/2, c.KW/2
	wd := c.W.Value.Data
	dwd, dbd := c.W.Grad.Data, c.B.Grad.Data

	for ni := 0; ni < n; ni++ {
		inBase := ni * h * w * c.Cin
		outBase := ni * h * w * c.Cout
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				gi := grad.Data[outBase+(y*w+xx)*c.Cout:]
				gi = gi[:c.Cout]
				for co, gv := range gi {
					dbd[co] += gv
				}
				for ky := 0; ky < c.KH; ky++ {
					iy := y + ky - ph
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < c.KW; kx++ {
						ix := xx + kx - pw
						if ix < 0 || ix >= w {
							continue
						}
						inOff := inBase + (iy*w+ix)*c.Cin
						in := x.Data[inOff : inOff+c.Cin]
						dIn := dx.Data[inOff : inOff+c.Cin]
						wBase := (ky*c.KW + kx) * c.Cin * c.Cout
						for ci := 0; ci < c.Cin; ci++ {
							wk := wd[wBase+ci*c.Cout : wBase+(ci+1)*c.Cout]
							dwk := dwd[wBase+ci*c.Cout : wBase+(ci+1)*c.Cout]
							xv := in[ci]
							var acc float32
							for co, gv := range gi {
								dwk[co] += xv * gv
								acc += wk[co] * gv
							}
							dIn[ci] += acc
						}
					}
				}
			}
		}
	}
	return dx
}
