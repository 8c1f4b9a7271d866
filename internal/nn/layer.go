// Package nn is a small, dependency-free neural-network substrate: layers
// with explicit forward/backward passes, softmax cross-entropy and MSE
// losses, SGD and Adam optimizers, and a Sequential container with
// save/load. It replaces the TensorFlow stack the paper trained HAWC,
// PointNet, and the AutoEncoder with (see DESIGN.md).
//
// Layers cache forward activations for the backward pass, so a model
// instance must not be shared across goroutines during training, and
// Forward itself is not safe for concurrent use. Sequential.Infer is the
// concurrent inference path: it writes no layer state and recycles its
// intermediate tensors through a sync.Pool, so one trained model can serve
// many goroutines at once (see infer.go).
package nn

import "hawccc/internal/tensor"

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

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
	// Forward computes the layer output. train selects training behavior
	// (batch statistics, dropout).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Infer is Forward(x, false) reading only parameters and running
	// statistics — no per-call layer state — so it is safe for concurrent
	// use; intermediate tensors come from s.
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
