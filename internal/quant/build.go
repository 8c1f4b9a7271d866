package quant

import (
	"fmt"

	"hawccc/internal/nn"
	"hawccc/internal/tensor"
)

// Model is a fully quantized inference graph: input quantization
// parameters, a chain of int8 ops, and a float output dequantization.
type Model struct {
	Ops     []QOp
	InScale float64
	InZero  int32
}

// Forward quantizes x, runs the int8 graph, and returns dequantized
// float32 outputs.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	q := QuantizeActivations(x, m.InScale, m.InZero)
	for _, op := range m.Ops {
		q = op.Apply(q)
	}
	return q.Dequantize()
}

// Quantize converts a trained FP32 model into an int8 Model. calib is the
// calibration set (the paper uses 100 random training samples); every
// tensor must have the model's input shape. BatchNorm layers are folded
// first; a ReLU right after a conv/dense is fused into the layer's output
// clamp.
func Quantize(m *nn.Sequential, calib []*tensor.Tensor) (*Model, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("quant: empty calibration set")
	}
	ls := FoldBatchNorm(m).Layers

	// Calibrate: the range of the input and of every layer's output.
	in, out := EmptyRange(), make([]Range, len(ls))
	for i := range out {
		out[i] = EmptyRange()
	}
	for _, x := range calib {
		in.Update(x)
		for i := range ls {
			x = (&nn.Sequential{Layers: ls[i : i+1]}).Infer(x)
			out[i].Update(x)
		}
	}

	scale, zero := in.Params()
	model := &Model{InScale: scale, InZero: zero}
	for i := 0; i < len(ls); i++ {
		var op QOp
		switch l := ls[i].(type) {
		case *nn.Conv2D:
			relu := reluAt(ls, i+1)
			if relu {
				i++
			}
			outScale, outZero := out[i].Params()
			w, bias, mult := quantizeAffine(l.W, l.B, scale, outScale)
			op = &QConv2D{KH: l.KH, KW: l.KW, Cin: l.Cin, Cout: l.Cout, W: w, Bias: bias,
				InScale: scale, InZero: zero, OutScale: outScale, OutZero: outZero, Mult: mult, FusedReLU: relu}
			scale, zero = outScale, outZero
		case *nn.Dense:
			relu := reluAt(ls, i+1)
			if relu {
				i++
			}
			outScale, outZero := out[i].Params()
			w, bias, mult := quantizeAffine(l.W, l.B, scale, outScale)
			op = &QDense{In: l.In, Out: l.Out, W: w, Bias: bias,
				InScale: scale, InZero: zero, OutScale: outScale, OutZero: outZero, Mult: mult, FusedReLU: relu}
			scale, zero = outScale, outZero
		case *nn.MaxPool2D:
			op = QMaxPool2D{}
		case *nn.MaxOverPoints:
			op = QMaxOverPoints{}
		case *nn.Reshape:
			op = QReshape{Dims: l.TargetDims()}
		case *nn.Group:
			op = QGroup{P: l.P}
		case *nn.ReLU:
			op = QReLU{}
		case *nn.BatchNorm:
			return nil, fmt.Errorf("quant: unfoldable BatchNorm (not preceded by conv/dense)")
		default:
			return nil, fmt.Errorf("quant: unsupported layer %s", l.Name())
		}
		model.Ops = append(model.Ops, op)
	}
	return model, nil
}

// reluAt reports whether ls[i] is a ReLU.
func reluAt(ls []nn.Layer, i int) bool {
	if i >= len(ls) {
		return false
	}
	_, ok := ls[i].(*nn.ReLU)
	return ok
}

// quantizeAffine quantizes a conv/dense layer's weights w and bias b for
// an input at inScale and an output at outScale: the int8 weights, the
// bias at the accumulator's scale, and the multiplier that takes an
// accumulator to the output's scale.
func quantizeAffine(w, b *nn.Param, inScale, outScale float64) ([]int8, []int32, Multiplier) {
	wq, wScale := QuantizeWeights(w.Value)
	accScale := inScale * wScale
	return wq, QuantizeBias(b.Value, accScale), NewMultiplier(accScale / outScale)
}
