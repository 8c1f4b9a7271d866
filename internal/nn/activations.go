package nn

import (
	"fmt"
	"math/rand"

	"hawccc/internal/tensor"
)

// ReLU is the rectified linear activation, element-wise max(0, x).
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (*ReLU) Name() string { return "ReLU" }

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = g
		}
	}
	return dx
}

// Dropout randomly zeroes activations during training with probability P,
// scaling survivors by 1/(1−P) (inverted dropout); it is the identity at
// inference.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask []float32
}

var _ Layer = (*Dropout)(nil)

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0, 1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.P) }

// Params implements Layer.
func (*Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if d.P == 0 {
		d.mask = nil
		return x
	}
	out := tensor.New(x.Shape...)
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float32, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	dx := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		dx.Data[i] = g * d.mask[i]
	}
	return dx
}
