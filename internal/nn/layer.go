// Package nn is a small, dependency-free neural-network substrate: layers
// with explicit forward/backward passes, softmax cross-entropy and MSE
// losses, the Adam optimizer, and a Sequential container with save/load.
// It replaces the TensorFlow stack the paper trained HAWC, PointNet, and
// the AutoEncoder with (see DESIGN.md).
//
// Forward is the training pass: layers cache its activations for the
// backward pass, so a model instance must not be shared across goroutines
// during training, and Forward itself is not safe for concurrent use.
// Sequential.Infer is the one inference pass: it writes no layer state
// and recycles its intermediate tensors through a sync.Pool, so one
// trained model can serve many goroutines at once (see infer.go).
package nn

import (
	"sync/atomic"

	"hawccc/internal/nn/kernels"
	"hawccc/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
//
// A weight matrix also keeps its GEMM panels for inference (packedB),
// built on first use and dropped whenever Value changes: the optimizers'
// Step and Sequential.Load call changed after they write it. A layer
// built from copied weights (a load, a fold) has fresh Params, so it
// packs its own.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	packed atomic.Pointer[[]float32]
}

// packedB returns Value, read as a row-major k×n matrix, in
// kernels.PackB panels, packing it on first use after a change.
// Concurrent first callers may each pack; the panels are identical.
func (p *Param) packedB(k, n int) []float32 {
	if bp := p.packed.Load(); bp != nil {
		return *bp
	}
	bp := kernels.PackB(k, n, p.Value.Data, make([]float32, kernels.PackedLen(k, n)))
	p.packed.Store(&bp)
	return bp
}

// changed drops the packed panels after a write to Value.
func (p *Param) changed() { p.packed.Store(nil) }

// newParam allocates a parameter and its gradient with the given shape.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// Layer is a differentiable computation stage.
type Layer interface {
	// Name identifies the layer type for diagnostics and serialization.
	Name() string
	// Forward is the training pass (batch statistics, dropout); it
	// caches what Backward needs on the layer.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Infer is the one inference pass (running statistics, no dropout).
	// It reads only parameters and running statistics — no per-call
	// layer state — so it is safe for concurrent use; intermediate
	// tensors come from s. Its oracle is inferNaive, the scalar
	// reference walk in naive_test.go.
	Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients. It must be called after Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly none).
	Params() []*Param
}

// Stateful is implemented by layers carrying non-trainable state that must
// be serialized (e.g. batch-norm running statistics).
type Stateful interface {
	State() []*tensor.Tensor
}
