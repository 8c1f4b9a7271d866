package quant

import "hawccc/internal/tensor"

// The scalar reference kernels. They live in a _test.go file so the
// compiler keeps them out of the binary: the equivalence tests are their
// only callers.

// ApplyNaive is the scalar reference convolution, retained to pin the
// GEMM path. Like the float reference it has no data-dependent shortcuts.
func (c *QConv2D) ApplyNaive(x *QTensor) *QTensor {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := NewQTensor(c.OutScale, c.OutZero, n, h, w, c.Cout)
	ph, pw := c.KH/2, c.KW/2
	lo := int32(-128)
	if c.FusedReLU && c.OutZero > lo {
		lo = c.OutZero
	}
	acc := make([]int32, c.Cout)
	for ni := 0; ni < n; ni++ {
		inBase := ni * h * w * c.Cin
		outBase := ni * h * w * c.Cout
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				copy(acc, c.Bias)
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
						in := x.Data[inBase+(iy*w+ix)*c.Cin:]
						wBase := (ky*c.KW + kx) * c.Cin * c.Cout
						for ci := 0; ci < c.Cin; ci++ {
							xv := int32(in[ci]) - c.InZero
							wk := c.W[wBase+ci*c.Cout : wBase+(ci+1)*c.Cout]
							for co := range acc {
								acc[co] += xv * int32(wk[co])
							}
						}
					}
				}
				requantize(acc, out.Data[outBase+(y*w+xx)*c.Cout:outBase+(y*w+xx+1)*c.Cout], c.Mult, c.OutZero, lo)
			}
		}
	}
	return out
}

// ApplyNaive is the scalar reference, retained to pin the GEMM path. No
// data-dependent shortcuts.
func (d *QDense) ApplyNaive(x *QTensor) *QTensor {
	n := x.Dim(0)
	out := NewQTensor(d.OutScale, d.OutZero, n, d.Out)
	lo := int32(-128)
	if d.FusedReLU && d.OutZero > lo {
		lo = d.OutZero
	}
	acc := make([]int32, d.Out)
	for i := 0; i < n; i++ {
		xi := x.Data[i*d.In : (i+1)*d.In]
		copy(acc, d.Bias)
		for k, xq := range xi {
			xv := int32(xq) - d.InZero
			wk := d.W[k*d.Out : (k+1)*d.Out]
			for j := range acc {
				acc[j] += xv * int32(wk[j])
			}
		}
		requantize(acc, out.Data[i*d.Out:(i+1)*d.Out], d.Mult, d.OutZero, lo)
	}
	return out
}

// forwardNaive walks m like Model.Forward but routes every QConv2D and
// QDense through its scalar reference kernel.
func forwardNaive(m *Model, x *tensor.Tensor) *tensor.Tensor {
	q := QuantizeActivations(x, m.InScale, m.InZero)
	for _, op := range m.Ops {
		switch op := op.(type) {
		case *QConv2D:
			q = op.ApplyNaive(q)
		case *QDense:
			q = op.ApplyNaive(q)
		default:
			q = op.Apply(q)
		}
	}
	return q.Dequantize()
}
