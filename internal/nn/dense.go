package nn

import (
	"fmt"
	"math/rand"

	"hawccc/internal/nn/kernels"
	"hawccc/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b, input [N, In] → [N, Out].
type Dense struct {
	In, Out int
	W, B    *Param

	x *tensor.Tensor // cached input
}

var _ Layer = (*Dense)(nil)

// NewDense builds a Dense layer with He initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam("dense.w", in, out),
		B:   newParam("dense.b", out),
	}
	d.W.Value.HeInit(rng, in)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	if x.NumElems() != n*d.In {
		panic(fmt.Sprintf("nn: Dense input %v, want [N, %d]", x.Shape, d.In))
	}
	d.x = x
	out := tensor.New(n, d.Out)
	sc := scratchPool.Get().(*Scratch)
	sc.reset()
	d.apply(x, out, sc)
	scratchPool.Put(sc)
	return out
}

// apply computes xW + b into out ([N, Out], fully overwritten) as one
// GEMM. Below kernels.PackMinRows the kernel runs its direct loop —
// packing the weights cannot pay off at batch 1 — so no pack buffer is
// drawn in that case. Both kernel paths accumulate bias-first, k
// ascending, making the result bit-identical to the scalar reference
// (applyNaive in naive_test.go). apply reads only the layer parameters, so
// it is safe to call concurrently (with distinct scratches).
func (d *Dense) apply(x, out *tensor.Tensor, s *Scratch) {
	n := x.Dim(0)
	var pack, tail []float32
	if n >= kernels.PackMinRows {
		pack = s.slice(kernels.PackedLen(d.In, d.Out))
		tail = s.slice(kernels.TailLen(d.In))
	}
	kernels.Gemm(n, d.Out, d.In, x.Data, d.W.Value.Data, d.B.Value.Data, out.Data, pack, tail)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := d.x.Dim(0)
	dx := tensor.New(n, d.In)
	w := d.W.Value.Data
	dw, db := d.W.Grad.Data, d.B.Grad.Data
	for i := 0; i < n; i++ {
		xi := d.x.Data[i*d.In : (i+1)*d.In]
		gi := grad.Data[i*d.Out : (i+1)*d.Out]
		di := dx.Data[i*d.In : (i+1)*d.In]
		for j, gv := range gi {
			db[j] += gv
		}
		for k, xv := range xi {
			wk := w[k*d.Out : (k+1)*d.Out]
			dwk := dw[k*d.Out : (k+1)*d.Out]
			var acc float32
			for j, gv := range gi {
				dwk[j] += xv * gv
				acc += wk[j] * gv
			}
			di[k] = acc
		}
	}
	return dx
}
