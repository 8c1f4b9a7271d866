package nn

import (
	"fmt"
	"math"

	"hawccc/internal/tensor"
)

// BatchNorm normalizes per channel (the last dimension) over all other
// dimensions: it accepts [N, F] or [N, H, W, C] inputs. Forward (training)
// uses batch statistics and updates running statistics with the given
// momentum; Infer uses the running statistics. Gamma and beta are
// trainable; the running statistics are Stateful.
type BatchNorm struct {
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// caches for backward
	xhat   *tensor.Tensor
	invStd []float32
	m      int // reduction size
}

var (
	_ Layer    = (*BatchNorm)(nil)
	_ Stateful = (*BatchNorm)(nil)
)

// NewBatchNorm builds a BatchNorm for c channels.
func NewBatchNorm(c int) *BatchNorm {
	bn := &BatchNorm{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.9,
		Gamma:       newParam("bn.gamma", c),
		Beta:        newParam("bn.beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("BatchNorm(%d)", b.C) }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// State implements Stateful.
func (b *BatchNorm) State() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunningMean, b.RunningVar}
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dim(x.Rank()-1) != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want last dim %d", x.Shape, b.C))
	}
	total := x.NumElems()
	m := total / b.C
	out := tensor.New(x.Shape...)

	mean := make([]float32, b.C)
	variance := make([]float32, b.C)
	for i := 0; i < total; i += b.C {
		for c := 0; c < b.C; c++ {
			mean[c] += x.Data[i+c]
		}
	}
	for c := range mean {
		mean[c] /= float32(m)
	}
	for i := 0; i < total; i += b.C {
		for c := 0; c < b.C; c++ {
			d := x.Data[i+c] - mean[c]
			variance[c] += d * d
		}
	}
	for c := range variance {
		variance[c] /= float32(m)
	}
	// Update running statistics.
	mom := float32(b.Momentum)
	for c := 0; c < b.C; c++ {
		b.RunningMean.Data[c] = mom*b.RunningMean.Data[c] + (1-mom)*mean[c]
		b.RunningVar.Data[c] = mom*b.RunningVar.Data[c] + (1-mom)*variance[c]
	}

	invStd := make([]float32, b.C)
	for c := range invStd {
		invStd[c] = float32(1 / math.Sqrt(float64(variance[c])+b.Eps))
	}
	g, bt := b.Gamma.Value.Data, b.Beta.Value.Data
	xhat := tensor.New(x.Shape...)
	for i := 0; i < total; i += b.C {
		for c := 0; c < b.C; c++ {
			xh := (x.Data[i+c] - mean[c]) * invStd[c]
			xhat.Data[i+c] = xh
			out.Data[i+c] = g[c]*xh + bt[c]
		}
	}
	b.xhat, b.invStd, b.m = xhat, invStd, m
	return out
}

// Backward implements Layer. Standard batch-norm gradient:
// dx = γ/σ · (dy − mean(dy) − x̂·mean(dy·x̂)) per channel.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward before Forward")
	}
	total := grad.NumElems()
	dg, db := b.Gamma.Grad.Data, b.Beta.Grad.Data
	g := b.Gamma.Value.Data

	sumDy := make([]float32, b.C)
	sumDyXhat := make([]float32, b.C)
	for i := 0; i < total; i += b.C {
		for c := 0; c < b.C; c++ {
			dy := grad.Data[i+c]
			sumDy[c] += dy
			sumDyXhat[c] += dy * b.xhat.Data[i+c]
		}
	}
	for c := 0; c < b.C; c++ {
		dg[c] += sumDyXhat[c]
		db[c] += sumDy[c]
	}

	mInv := 1 / float32(b.m)
	dx := tensor.New(grad.Shape...)
	for i := 0; i < total; i += b.C {
		for c := 0; c < b.C; c++ {
			dy := grad.Data[i+c]
			dx.Data[i+c] = g[c] * b.invStd[c] *
				(dy - sumDy[c]*mInv - b.xhat.Data[i+c]*sumDyXhat[c]*mInv)
		}
	}
	return dx
}
