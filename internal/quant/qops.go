package quant

import (
	"fmt"
	"sync"

	"hawccc/internal/nn/kernels"
)

// QOp is one stage of a quantized inference graph.
type QOp interface {
	Name() string
	Apply(x *QTensor) *QTensor
}

// gemmScratch holds the int8 GEMM workspace (im2col matrix, packed
// weight panels, int32 accumulators) so Apply stays allocation-free on
// the hot path. Pooled because quantized inference runs concurrently
// from the counting workers.
type gemmScratch struct {
	col  []int8
	pack []int8
	acc  []int32
}

var gemmPool = sync.Pool{New: func() any { return new(gemmScratch) }}

func (g *gemmScratch) i8(buf *[]int8, n int) []int8 {
	if cap(*buf) < n {
		*buf = make([]int8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (g *gemmScratch) i32(n int) []int32 {
	if cap(g.acc) < n {
		g.acc = make([]int32, n)
	}
	g.acc = g.acc[:n]
	return g.acc
}

// requantize maps int32 accumulators to int8 outputs: fixed-point
// multiply, zero-point shift, clamp to [lo, 127]. Shared by the GEMM and
// naive paths so requantization is identical by construction.
func requantize(acc []int32, out []int8, mult Multiplier, outZero, lo int32) {
	for i, a := range acc {
		v := mult.Apply(a) + outZero
		if v < lo {
			v = lo
		}
		if v > 127 {
			v = 127
		}
		out[i] = int8(v)
	}
}

// QConv2D is a stride-1, same-padding int8 convolution with optional fused
// ReLU. Accumulation is int32; requantization uses a fixed-point
// multiplier.
type QConv2D struct {
	KH, KW, Cin, Cout int
	W                 []int8  // [KH, KW, Cin, Cout]
	Bias              []int32 // accumulator scale
	InScale           float64
	InZero            int32
	OutScale          float64
	OutZero           int32
	Mult              Multiplier
	FusedReLU         bool
}

var _ QOp = (*QConv2D)(nil)

// Name implements QOp.
func (c *QConv2D) Name() string {
	return fmt.Sprintf("QConv2D(%dx%d,%d→%d)", c.KH, c.KW, c.Cin, c.Cout)
}

// Apply implements QOp via im2col + int8 GEMM: the weights pack once
// per call, each image lowers to its patch matrix (padding taps filled
// with the input zero point, so they contribute exactly nothing after
// the zero-point shift), and requantization runs over the int32
// accumulator plane. Integer arithmetic is exact, so this is equal to
// the scalar reference (ApplyNaive in naive_test.go) element for element.
func (c *QConv2D) Apply(x *QTensor) *QTensor {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := NewQTensor(c.OutScale, c.OutZero, n, h, w, c.Cout)
	k := c.KH * c.KW * c.Cin
	m := h * w
	lo := int32(-128)
	if c.FusedReLU && c.OutZero > lo {
		lo = c.OutZero
	}
	zp := int8(clampInt8(c.InZero))
	g := gemmPool.Get().(*gemmScratch)
	pack := kernels.PackBInt8(k, c.Cout, c.W, g.i8(&g.pack, kernels.PackedLen(k, c.Cout)))
	col := g.i8(&g.col, m*k)
	acc := g.i32(m * c.Cout)
	for ni := 0; ni < n; ni++ {
		kernels.Im2colInt8(h, w, c.Cin, c.KH, c.KW, zp, x.Data[ni*m*c.Cin:(ni+1)*m*c.Cin], col)
		kernels.GemmInt8Packed(m, c.Cout, k, col, c.InZero, pack, c.Bias, acc)
		requantize(acc, out.Data[ni*m*c.Cout:(ni+1)*m*c.Cout], c.Mult, c.OutZero, lo)
	}
	gemmPool.Put(g)
	return out
}

// QDense is an int8 fully connected layer with optional fused ReLU.
type QDense struct {
	In, Out   int
	W         []int8 // [In, Out]
	Bias      []int32
	InScale   float64
	InZero    int32
	OutScale  float64
	OutZero   int32
	Mult      Multiplier
	FusedReLU bool
}

var _ QOp = (*QDense)(nil)

// Name implements QOp.
func (d *QDense) Name() string { return fmt.Sprintf("QDense(%d→%d)", d.In, d.Out) }

// Apply implements QOp as one int8 GEMM over the whole batch, then one
// requantization pass. Exactly equal to the scalar reference (ApplyNaive
// in naive_test.go): integer arithmetic.
func (d *QDense) Apply(x *QTensor) *QTensor {
	n := x.Dim(0)
	out := NewQTensor(d.OutScale, d.OutZero, n, d.Out)
	lo := int32(-128)
	if d.FusedReLU && d.OutZero > lo {
		lo = d.OutZero
	}
	g := gemmPool.Get().(*gemmScratch)
	var pack []int8
	if n >= kernels.PackMinRowsInt8 {
		pack = g.i8(&g.pack, kernels.PackedLen(d.In, d.Out))
	}
	acc := g.i32(n * d.Out)
	kernels.GemmInt8(n, d.Out, d.In, x.Data, d.InZero, d.W, d.Bias, acc, pack)
	requantize(acc, out.Data, d.Mult, d.OutZero, lo)
	gemmPool.Put(g)
	return out
}

// QMaxPool2D is 2×2/2 max pooling on int8 (order-preserving, so the max of
// quantized values is the quantized max).
type QMaxPool2D struct{}

var _ QOp = QMaxPool2D{}

// Name implements QOp.
func (QMaxPool2D) Name() string { return "QMaxPool2D" }

// Apply implements QOp.
func (QMaxPool2D) Apply(x *QTensor) *QTensor {
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/2, w/2
	out := NewQTensor(x.Scale, x.Zero, n, oh, ow, c)
	idx := func(ni, y, xx, ci int) int { return ((ni*h+y)*w+xx)*c + ci }
	o := 0
	for ni := 0; ni < n; ni++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				for ci := 0; ci < c; ci++ {
					bv := x.Data[idx(ni, 2*y, 2*xx, ci)]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							if v := x.Data[idx(ni, 2*y+dy, 2*xx+dx, ci)]; v > bv {
								bv = v
							}
						}
					}
					out.Data[o] = bv
					o++
				}
			}
		}
	}
	return out
}

// QMaxOverPoints reduces [N, P, F] → [N, F] by int8 max.
type QMaxOverPoints struct{}

var _ QOp = QMaxOverPoints{}

// Name implements QOp.
func (QMaxOverPoints) Name() string { return "QMaxOverPoints" }

// Apply implements QOp.
func (QMaxOverPoints) Apply(x *QTensor) *QTensor {
	n, p, f := x.Dim(0), x.Dim(1), x.Dim(2)
	out := NewQTensor(x.Scale, x.Zero, n, f)
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			bv := x.Data[(ni*p)*f+fi]
			for pi := 1; pi < p; pi++ {
				if v := x.Data[(ni*p+pi)*f+fi]; v > bv {
					bv = v
				}
			}
			out.Data[ni*f+fi] = bv
		}
	}
	return out
}

// QReshape reinterprets the non-batch dimensions.
type QReshape struct {
	Dims []int // empty = flatten
}

var _ QOp = QReshape{}

// Name implements QOp.
func (r QReshape) Name() string {
	if len(r.Dims) == 0 {
		return "QFlatten"
	}
	return fmt.Sprintf("QReshape%v", r.Dims)
}

// Apply implements QOp.
func (r QReshape) Apply(x *QTensor) *QTensor {
	n := x.Dim(0)
	var shape []int
	if len(r.Dims) == 0 {
		shape = []int{n, x.NumElems() / n}
	} else {
		shape = append([]int{n}, r.Dims...)
	}
	return &QTensor{Shape: shape, Data: x.Data, Scale: x.Scale, Zero: x.Zero}
}

// QReLU clamps to the zero point (used only when a ReLU could not be fused
// into the preceding layer).
type QReLU struct{}

var _ QOp = QReLU{}

// Name implements QOp.
func (QReLU) Name() string { return "QReLU" }

// Apply implements QOp.
func (QReLU) Apply(x *QTensor) *QTensor {
	out := NewQTensor(x.Scale, x.Zero, x.Shape...)
	z := int8(clampInt8(x.Zero))
	for i, v := range x.Data {
		if v < z {
			v = z
		}
		out.Data[i] = v
	}
	return out
}

// QGroup regroups [B, F] → [B/P, P, F] on int8 data.
type QGroup struct {
	P int
}

var _ QOp = QGroup{}

// Name implements QOp.
func (g QGroup) Name() string { return fmt.Sprintf("QGroup(%d)", g.P) }

// Apply implements QOp.
func (g QGroup) Apply(x *QTensor) *QTensor {
	b, f := x.Dim(0), x.Dim(1)
	if b%g.P != 0 {
		panic(fmt.Sprintf("quant: QGroup(%d) batch %d not divisible", g.P, b))
	}
	return &QTensor{Shape: []int{b / g.P, g.P, f}, Data: x.Data, Scale: x.Scale, Zero: x.Zero}
}
