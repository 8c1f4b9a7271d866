package nn

// Race-safe, allocation-free inference.
//
// Infer is the only inference pass: the counting pipeline, int8
// calibration and the device cost model all run it. Layer.Forward is the
// training pass and caches activations on the layer struct for the
// backward pass, so a model shared across goroutines must not run it
// concurrently. Sequential.Infer reads only parameters and running
// statistics, writes no layer state, and draws every intermediate tensor
// from a sync.Pool-backed scratch arena so per-cluster inference does not
// allocate on the hot path.
//
// Its oracle is inferNaive (naive_test.go): the same layers one at a
// time, without the Conv2D→BatchNorm→ReLU and BatchNorm+ReLU fusions,
// with Conv2D and Dense on their scalar applyNaive kernels. The tests pin
// the two bit for bit.

import (
	"fmt"
	"math"
	"sync"

	"hawccc/internal/nn/kernels"
	"hawccc/internal/tensor"
)

// Scratch is an arena of reusable intermediate tensors for one inference
// pass: their storage and their headers, shape slices included. Tensors
// handed out by a Scratch are valid until the owning Sequential.Infer
// call returns (which hands back a Clone of its result); a Scratch must
// not be shared across goroutines.
type Scratch struct {
	bufs  [][]float32
	next  int
	heads []*tensor.Tensor
	head  int
}

// reset rewinds the arena so the next pass reuses the same buffers and
// headers.
func (s *Scratch) reset() { s.next, s.head = 0, 0 }

// grab returns the next arena slot resized to n elements, contents
// unspecified. Because a fixed model issues the same slot sequence every
// pass, each slot converges to the right capacity after one pass; slots
// never overlap, so every live tensor of a pass has disjoint backing.
func (s *Scratch) grab(n int) []float32 {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, make([]float32, n))
	}
	buf := s.bufs[s.next]
	if cap(buf) < n {
		buf = make([]float32, n)
		s.bufs[s.next] = buf
	}
	buf = buf[:n]
	s.next++
	return buf
}

// slice returns a raw arena buffer of n elements with unspecified
// contents — workspace for the GEMM kernels (im2col matrices, packed
// weight panels), which overwrite what they need.
func (s *Scratch) slice(n int) []float32 { return s.grab(n) }

// uninit returns a tensor of the given shape backed by arena storage
// without zeroing it, for ops that overwrite every output element — the
// GEMM kernels, pooling, batch norm, activations. Zeroing here would be
// pure overhead on the hot path.
func (s *Scratch) uninit(shape ...int) *tensor.Tensor {
	return s.view(s.grab(elems(shape)), shape...)
}

// view returns an arena tensor header of the given shape over data, whose
// length must match it. Like the buffers, a header and its shape slice
// are reused once the arena is reset.
func (s *Scratch) view(data []float32, shape ...int) *tensor.Tensor {
	if s.head == len(s.heads) {
		s.heads = append(s.heads, new(tensor.Tensor))
	}
	t := s.heads[s.head]
	s.head++
	// Check the copy: a panic that printed shape would move every
	// caller's variadic shape to the heap.
	t.Shape = append(t.Shape[:0], shape...)
	if elems(t.Shape) != len(data) {
		panic(fmt.Sprintf("nn: %d elements viewed as %v", len(data), t.Shape))
	}
	t.Data = data
	return t
}

// elems is the element count of shape.
func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// scratchPool recycles arenas across Infer calls and goroutines.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Infer runs the inference pass without touching layer state, so one
// trained model may serve many goroutines at once. Intermediate tensors
// come from a pooled scratch arena; the result is detached from the arena
// before it is returned. A Conv2D followed by a BatchNorm and a ReLU runs
// as one GEMM whose tile normalizes and rectifies each output before it
// stores it (kernels.GemmPacked's epilogue); any other BatchNorm followed
// by a ReLU runs as one pass over the activations. Either way each
// element takes the layers' expressions in order.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor {
	sc := scratchPool.Get().(*Scratch)
	sc.reset()
	ls := s.Layers
	for i := 0; i < len(ls); i++ {
		if c, ok := ls[i].(*Conv2D); ok {
			if bn := bnReLU(ls[i+1:]); bn != nil && bn.C == c.Cout {
				x = c.infer(x, sc, bn.epilogue(sc))
				i += 2
				continue
			}
		}
		if bn := bnReLU(ls[i:]); bn != nil {
			x = bn.infer(x, sc, true)
			i++
			continue
		}
		x = ls[i].Infer(x, sc)
	}
	out := x.Clone()
	scratchPool.Put(sc)
	return out
}

// bnReLU returns ls[0] when ls opens with a BatchNorm and a ReLU.
func bnReLU(ls []Layer) *BatchNorm {
	if len(ls) < 2 {
		return nil
	}
	if _, ok := ls[1].(*ReLU); !ok {
		return nil
	}
	bn, _ := ls[0].(*BatchNorm)
	return bn
}

// Infer implements Layer.
func (c *Conv2D) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	return c.infer(x, s, nil)
}

// infer is Infer, with each output passed through the GEMM epilogue ep
// when it is non-nil.
func (c *Conv2D) infer(x *tensor.Tensor, s *Scratch, ep []float32) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(3) != c.Cin {
		panic(fmt.Sprintf("nn: Conv2D input %v, want [N, H, W, %d]", x.Shape, c.Cin))
	}
	out := s.uninit(x.Dim(0), x.Dim(1), x.Dim(2), c.Cout)
	c.conv(x, out, s, c.W.packedB(c.KH*c.KW*c.Cin, c.Cout), ep)
	return out
}

// Infer implements Layer.
func (d *Dense) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	n := x.Dim(0)
	if x.NumElems() != n*d.In {
		panic(fmt.Sprintf("nn: Dense input %v, want [N, %d]", x.Shape, d.In))
	}
	out := s.uninit(n, d.Out)
	d.apply(x, out, s)
	return out
}

// Infer implements Layer. It normalizes with the running statistics,
// without touching them.
func (b *BatchNorm) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	return b.infer(x, s, false)
}

// infer is Infer, followed by ReLU.Infer's rectify of each output
// element when relu is set.
func (b *BatchNorm) infer(x *tensor.Tensor, s *Scratch, relu bool) *tensor.Tensor {
	if x.Dim(x.Rank()-1) != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want last dim %d", x.Shape, b.C))
	}
	total, n := x.NumElems(), b.C
	out := s.uninit(x.Shape...)
	ep := b.epilogue(s)
	mean, invStd, g, bt := ep[:n], ep[n:2*n], ep[2*n:3*n], ep[3*n:]
	for i := 0; i < total; i += n {
		xi, yi := x.Data[i:i+n], out.Data[i:i+n]
		for c, v := range xi {
			xh := (v - mean[c]) * invStd[c]
			y := g[c]*xh + bt[c]
			if relu {
				y = rectify(y)
			}
			yi[c] = y
		}
	}
	return out
}

// epilogue lays the inference constants out as kernels.GemmPacked's
// epilogue rows — running mean, 1/√(running variance + ε), γ, β — in
// scratch, so a convolution's tile can apply this layer and a ReLU.
func (b *BatchNorm) epilogue(s *Scratch) []float32 {
	n := b.C
	ep := s.slice(kernels.EpilogueLen(n))
	copy(ep[:n], b.RunningMean.Data[:n])
	for c, v := range b.RunningVar.Data[:n] {
		ep[n+c] = float32(1 / math.Sqrt(float64(v)+b.Eps))
	}
	copy(ep[2*n:3*n], b.Gamma.Value.Data[:n])
	copy(ep[3*n:], b.Beta.Value.Data[:n])
	return ep
}

// Infer implements Layer.
func (r *ReLU) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	out := s.uninit(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = rectify(v)
	}
	return out
}

// rectify is max(0, v) as ReLU.Forward computes it, without a
// data-dependent branch (kernels.Rectify).
func rectify(v float32) float32 { return kernels.Rectify(v) }

// Infer implements Layer. Dropout is the identity at inference.
func (d *Dropout) Infer(x *tensor.Tensor, _ *Scratch) *tensor.Tensor { return x }

// Infer implements Layer. It selects like Forward, v > bv in window
// order, without a branch on the data (kernels.MaxPool2x2).
func (m *MaxPool2D) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v too small", x.Shape))
	}
	out := s.uninit(n, oh, ow, c)
	kernels.MaxPool2x2(n, h, w, c, x.Data, out.Data)
	return out
}

// Infer implements Layer.
func (m *MaxOverPoints) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: MaxOverPoints input %v, want [N, P, F]", x.Shape))
	}
	n, p, f := x.Dim(0), x.Dim(1), x.Dim(2)
	out := s.uninit(n, f)
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

// Infer implements Layer. The view shares x's storage, which is safe:
// arena buffers are only reclaimed when the whole pass finishes. Its
// header comes from the arena too.
func (r *Reshape) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	n := x.Dim(0)
	if len(r.dims) == 0 {
		return s.view(x.Data, n, x.NumElems()/n)
	}
	var shape [4]int
	return s.view(x.Data, append(append(shape[:0], n), r.dims...)...)
}

// Infer implements Layer.
func (g *Group) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	b, f := x.Dim(0), x.Dim(1)
	if b%g.P != 0 {
		panic(fmt.Sprintf("nn: Group(%d) input batch %d not divisible", g.P, b))
	}
	return s.view(x.Data, b/g.P, g.P, f)
}
