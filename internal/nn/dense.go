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
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	if x.NumElems() != n*d.In {
		panic(fmt.Sprintf("nn: Dense input %v, want [N, %d]", x.Shape, d.In))
	}
	d.x = x
	out := tensor.New(n, d.Out)
	// Training moves the weights every step, so Forward packs them into
	// the scratch arena per call rather than keeping them.
	sc := scratchPool.Get().(*Scratch)
	sc.reset()
	kernels.Gemm(n, d.Out, d.In, x.Data, d.W.Value.Data, d.B.Value.Data, out.Data,
		sc.slice(kernels.PackedLen(d.In, d.Out)), sc.slice(kernels.TailLen(d.In)))
	scratchPool.Put(sc)
	return out
}

// apply computes xW + b into out ([N, Out], fully overwritten) as one
// GEMM, on the weight panels the layer keeps for the life of its weights
// (Param.packedB). Below kernels.Packs the kernel runs its direct loop on
// W. Both kernel paths accumulate bias-first, k ascending, making the
// result bit-identical to the scalar reference (applyNaive in
// naive_test.go) and to Forward. apply writes no layer state, so it is
// safe to call concurrently (with distinct scratches).
func (d *Dense) apply(x, out *tensor.Tensor, s *Scratch) {
	n := x.Dim(0)
	if !kernels.Packs(n) {
		kernels.Gemm(n, d.Out, d.In, x.Data, d.W.Value.Data, d.B.Value.Data, out.Data, nil, nil)
		return
	}
	kernels.GemmPacked(n, d.Out, d.In, x.Data, d.W.packedB(d.In, d.Out), d.B.Value.Data, nil, out.Data,
		s.slice(kernels.TailLen(d.In)))
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
