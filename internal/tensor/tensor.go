// Package tensor provides the dense float32 n-dimensional array that the
// neural-network substrate (internal/nn) builds on. It is deliberately
// small: row-major storage, shape algebra, and the handful of element-wise
// helpers the layers need. Heavy math (convolution, matmul) lives in the
// layers themselves where loop structure can be specialized.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major float32 array.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := numElems(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is NOT
// copied; it panics if the length does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), slices.Clone(shape)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func numElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", slices.Clone(shape)))
		}
		n *= d
	}
	return n
}

// NumElems returns the total element count.
func (t *Tensor) NumElems() int { return len(t.Data) }

// Dim returns the size of the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view sharing the same data with a new shape; the
// element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if numElems(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AbsMax returns the largest absolute element value (0 for empty).
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// RandNormal fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// HeInit applies He-normal initialization for a layer with the given
// fan-in, the standard choice before ReLU activations.
func (t *Tensor) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, std)
}

// String summarizes the tensor for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
