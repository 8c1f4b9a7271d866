package nn

import (
	"fmt"

	"hawccc/internal/tensor"
)

// MaxPool2D is a 2×2, stride-2 max pooling over [N, H, W, C] inputs. Odd
// trailing rows/columns are dropped (floor semantics).
type MaxPool2D struct {
	argmax  []int
	inShape []int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds the pooling layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// Name implements Layer.
func (*MaxPool2D) Name() string { return "MaxPool2D(2x2)" }

// Params implements Layer.
func (*MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v too small", x.Shape))
	}
	m.inShape = append([]int(nil), x.Shape...)
	out := tensor.New(n, oh, ow, c)
	if cap(m.argmax) < out.NumElems() {
		m.argmax = make([]int, out.NumElems())
	}
	m.argmax = m.argmax[:out.NumElems()]

	idx := func(ni, y, xx, ci int) int { return ((ni*h+y)*w+xx)*c + ci }
	o := 0
	for ni := 0; ni < n; ni++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				for ci := 0; ci < c; ci++ {
					best := idx(ni, 2*y, 2*xx, ci)
					bv := x.Data[best]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							i := idx(ni, 2*y+dy, 2*xx+dx, ci)
							if x.Data[i] > bv {
								best, bv = i, x.Data[i]
							}
						}
					}
					out.Data[o] = bv
					m.argmax[o] = best
					o++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.inShape...)
	for o, src := range m.argmax {
		dx.Data[src] += grad.Data[o]
	}
	return dx
}

// MaxOverPoints reduces [N, P, F] → [N, F] by max over the point axis —
// PointNet's symmetric aggregation function. The gradient routes to the
// argmax point per feature.
type MaxOverPoints struct {
	argmax  []int
	inShape []int
}

var _ Layer = (*MaxOverPoints)(nil)

// NewMaxOverPoints builds the reduction layer.
func NewMaxOverPoints() *MaxOverPoints { return &MaxOverPoints{} }

// Name implements Layer.
func (*MaxOverPoints) Name() string { return "MaxOverPoints" }

// Params implements Layer.
func (*MaxOverPoints) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxOverPoints) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: MaxOverPoints input %v, want [N, P, F]", x.Shape))
	}
	n, p, f := x.Dim(0), x.Dim(1), x.Dim(2)
	m.inShape = append([]int(nil), x.Shape...)
	out := tensor.New(n, f)
	if cap(m.argmax) < n*f {
		m.argmax = make([]int, n*f)
	}
	m.argmax = m.argmax[:n*f]
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			best := (ni*p)*f + fi
			bv := x.Data[best]
			for pi := 1; pi < p; pi++ {
				i := (ni*p+pi)*f + fi
				if x.Data[i] > bv {
					best, bv = i, x.Data[i]
				}
			}
			out.Data[ni*f+fi] = bv
			m.argmax[ni*f+fi] = best
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxOverPoints) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.inShape...)
	for o, src := range m.argmax {
		dx.Data[src] += grad.Data[o]
	}
	return dx
}

// Reshape reinterprets the non-batch dimensions; the batch dimension (dim
// 0) is preserved. Use with all target dims, e.g. NewReshape(18, 18, 7)
// to go from [N, 2268] to [N, 18, 18, 7]. Flatten is NewReshape(k).
type Reshape struct {
	dims    []int
	inShape []int
}

var _ Layer = (*Reshape)(nil)

// NewReshape builds a reshape to [N, dims...].
func NewReshape(dims ...int) *Reshape {
	return &Reshape{dims: append([]int(nil), dims...)}
}

// NewFlatten builds a reshape to [N, everything].
func NewFlatten() *Reshape { return &Reshape{} }

// TargetDims returns the configured non-batch target dimensions (empty for
// Flatten).
func (r *Reshape) TargetDims() []int { return append([]int(nil), r.dims...) }

// Group regroups a flat batch of points into per-cloud blocks:
// [B, F] → [B/P, P, F]. PointNet applies its shared per-point MLP with the
// points flattened into the batch dimension, then groups them back before
// the max aggregation. B must be a multiple of P.
type Group struct {
	P       int
	inShape []int
}

var _ Layer = (*Group)(nil)

// NewGroup builds a grouping layer for clouds of p points.
func NewGroup(p int) *Group {
	if p < 1 {
		panic(fmt.Sprintf("nn: Group size %d", p))
	}
	return &Group{P: p}
}

// Name implements Layer.
func (g *Group) Name() string { return fmt.Sprintf("Group(%d)", g.P) }

// Params implements Layer.
func (*Group) Params() []*Param { return nil }

// Forward implements Layer.
func (g *Group) Forward(x *tensor.Tensor) *tensor.Tensor {
	b, f := x.Dim(0), x.Dim(1)
	if b%g.P != 0 {
		panic(fmt.Sprintf("nn: Group(%d) input batch %d not divisible", g.P, b))
	}
	g.inShape = append(g.inShape[:0], x.Shape...)
	return x.Reshape(b/g.P, g.P, f)
}

// Backward implements Layer.
func (g *Group) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(g.inShape...)
}

// Name implements Layer.
func (r *Reshape) Name() string {
	if len(r.dims) == 0 {
		return "Flatten"
	}
	return fmt.Sprintf("Reshape%v", r.dims)
}

// Params implements Layer.
func (*Reshape) Params() []*Param { return nil }

// Forward implements Layer.
func (r *Reshape) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.inShape = append(r.inShape[:0], x.Shape...)
	n := x.Dim(0)
	if len(r.dims) == 0 {
		return x.Reshape(n, x.NumElems()/n)
	}
	shape := append([]int{n}, r.dims...)
	return x.Reshape(shape...)
}

// Backward implements Layer.
func (r *Reshape) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(r.inShape...)
}
