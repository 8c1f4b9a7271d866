package nn

import (
	"math"

	"hawccc/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba). The paper trains HAWC with
// Adam at lr 0.001 (Section VII-A).
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam builds an Adam optimizer with the standard β/ε defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step updates params from their accumulated gradients and then zeroes
// the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape...)
		}
		v := a.v[p]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for i, g := range p.Grad.Data {
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			v.Data[i] = b2*v.Data[i] + (1-b2)*g*g
			mHat := float64(m.Data[i]) / b1c
			vHat := float64(v.Data[i]) / b2c
			p.Value.Data[i] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
		p.changed()
		p.Grad.Zero()
	}
}
