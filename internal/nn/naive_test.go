package nn

import "hawccc/internal/tensor"

// The scalar reference kernels. They live in a _test.go file so the
// compiler keeps them out of the binary: the equivalence tests and the
// naive/ sub-benchmarks are their only callers.

// applyNaive is the scalar reference convolution, retained to pin the
// GEMM path bit-for-bit and to measure its speedup in BenchmarkConv2D.
// It deliberately has no data-dependent shortcuts (a zero-activation
// skip once lived here): latency must not depend on input sparsity, or
// benchmarks and the pole's frame budget drift with scene content.
func (c *Conv2D) applyNaive(x, out *tensor.Tensor) {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	ph, pw := c.KH/2, c.KW/2
	wd, bd := c.W.Value.Data, c.B.Value.Data

	for ni := 0; ni < n; ni++ {
		inBase := ni * h * w * c.Cin
		outBase := ni * h * w * c.Cout
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				oi := out.Data[outBase+(y*w+xx)*c.Cout:]
				oi = oi[:c.Cout]
				copy(oi, bd)
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
							xv := in[ci]
							wk := wd[wBase+ci*c.Cout : wBase+(ci+1)*c.Cout]
							for co := range oi {
								oi[co] += xv * wk[co]
							}
						}
					}
				}
			}
		}
	}
}

// applyNaive is the scalar reference, retained to pin the GEMM path bit
// for bit and to benchmark against. Like Conv2D.applyNaive it has no
// zero-activation skip: latency must not depend on input sparsity.
func (d *Dense) applyNaive(x, out *tensor.Tensor) {
	n := x.Dim(0)
	w, b := d.W.Value.Data, d.B.Value.Data
	for i := 0; i < n; i++ {
		xi := x.Data[i*d.In : (i+1)*d.In]
		oi := out.Data[i*d.Out : (i+1)*d.Out]
		copy(oi, b)
		for k, xv := range xi {
			wk := w[k*d.Out : (k+1)*d.Out]
			for j := range oi {
				oi[j] += xv * wk[j]
			}
		}
	}
}

// inferNaive walks m like Sequential.Infer but routes every Conv2D and
// Dense through its scalar reference kernel.
func inferNaive(m *Sequential, x *tensor.Tensor) *tensor.Tensor {
	s := newScratch()
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Conv2D:
			out := tensor.New(x.Dim(0), x.Dim(1), x.Dim(2), l.Cout)
			l.applyNaive(x, out)
			x = out
		case *Dense:
			out := tensor.New(x.Dim(0), l.Out)
			l.applyNaive(x, out)
			x = out
		default:
			x = l.Infer(x, s)
		}
	}
	return x.Clone()
}
