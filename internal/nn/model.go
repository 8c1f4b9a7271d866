package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hawccc/internal/tensor"
)

// Sequential chains layers into a model. The zero value is an empty model;
// append layers with Add.
type Sequential struct {
	Layers []Layer
}

// Add appends layers and returns the model for chaining.
func (s *Sequential) Add(layers ...Layer) *Sequential {
	s.Layers = append(s.Layers, layers...)
	return s
}

// Forward runs the layer chain's training pass.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates ∂L/∂output back through the chain, accumulating
// parameter gradients.
func (s *Sequential) Backward(grad *tensor.Tensor) {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// states returns all Stateful tensors in layer order.
func (s *Sequential) states() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		if st, ok := l.(Stateful); ok {
			out = append(out, st.State()...)
		}
	}
	return out
}

// modelMagic prefixes serialized weights.
var modelMagic = [4]byte{'H', 'W', 'N', 'N'}

// Save writes all parameters and layer state to w. The architecture is
// not serialized — Load must be called on a structurally identical model.
func (s *Sequential) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(modelMagic[:]); err != nil {
		return fmt.Errorf("nn: save magic: %w", err)
	}
	tensors := make([]*tensor.Tensor, 0)
	for _, p := range s.Params() {
		tensors = append(tensors, p.Value)
	}
	tensors = append(tensors, s.states()...)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(tensors))); err != nil {
		return fmt.Errorf("nn: save count: %w", err)
	}
	for _, t := range tensors {
		if err := binary.Write(bw, binary.LittleEndian, uint32(t.NumElems())); err != nil {
			return fmt.Errorf("nn: save size: %w", err)
		}
		for _, v := range t.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return fmt.Errorf("nn: save data: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Load reads parameters and layer state previously written by Save into a
// structurally identical model.
func (s *Sequential) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("nn: load magic: %w", err)
	}
	if m != modelMagic {
		return fmt.Errorf("nn: bad model magic %q", m)
	}
	tensors := make([]*tensor.Tensor, 0)
	for _, p := range s.Params() {
		tensors = append(tensors, p.Value)
	}
	tensors = append(tensors, s.states()...)
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: load count: %w", err)
	}
	if int(count) != len(tensors) {
		return fmt.Errorf("nn: model has %d tensors, file has %d", len(tensors), count)
	}
	for i, t := range tensors {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("nn: load size: %w", err)
		}
		if int(n) != t.NumElems() {
			return fmt.Errorf("nn: tensor %d has %d elements, file has %d", i, t.NumElems(), n)
		}
		for j := range t.Data {
			var bits uint32
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return fmt.Errorf("nn: load data: %w", err)
			}
			t.Data[j] = math.Float32frombits(bits)
		}
	}
	for _, p := range s.Params() {
		p.changed()
	}
	return nil
}
