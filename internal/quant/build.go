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

// stage is a group of FP layers that becomes one QOp.
type stage struct {
	layers    []nn.Layer // executed for calibration
	conv      *nn.Conv2D
	dense     *nn.Dense
	pool      bool
	maxPoints bool
	reshape   *nn.Reshape
	group     int // >0: Group(P)
	ungroup   bool
	relu      bool // standalone ReLU stage
	fusedReLU bool
}

// Quantize converts a trained FP32 model into an int8 Model. calib is the
// calibration set (the paper uses 100 random training samples); every
// tensor must have the model's input shape. BatchNorm layers are folded
// first; ReLUs immediately after conv/dense are fused into the layer's
// output clamp.
func Quantize(m *nn.Sequential, calib []*tensor.Tensor) (*Model, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("quant: empty calibration set")
	}
	folded := FoldBatchNorm(m)

	// Group folded layers into stages.
	var stages []*stage
	for i := 0; i < len(folded.Layers); i++ {
		switch l := folded.Layers[i].(type) {
		case *nn.Conv2D:
			st := &stage{layers: []nn.Layer{l}, conv: l}
			if i+1 < len(folded.Layers) {
				if r, ok := folded.Layers[i+1].(*nn.ReLU); ok {
					st.layers = append(st.layers, r)
					st.fusedReLU = true
					i++
				}
			}
			stages = append(stages, st)
		case *nn.Dense:
			st := &stage{layers: []nn.Layer{l}, dense: l}
			if i+1 < len(folded.Layers) {
				if r, ok := folded.Layers[i+1].(*nn.ReLU); ok {
					st.layers = append(st.layers, r)
					st.fusedReLU = true
					i++
				}
			}
			stages = append(stages, st)
		case *nn.MaxPool2D:
			stages = append(stages, &stage{layers: []nn.Layer{l}, pool: true})
		case *nn.MaxOverPoints:
			stages = append(stages, &stage{layers: []nn.Layer{l}, maxPoints: true})
		case *nn.Reshape:
			stages = append(stages, &stage{layers: []nn.Layer{l}, reshape: l})
		case *nn.Group:
			stages = append(stages, &stage{layers: []nn.Layer{l}, group: l.P})
		case *nn.Ungroup:
			stages = append(stages, &stage{layers: []nn.Layer{l}, ungroup: true})
		case *nn.ReLU:
			stages = append(stages, &stage{layers: []nn.Layer{l}, relu: true})
		case *nn.BatchNorm:
			return nil, fmt.Errorf("quant: unfoldable BatchNorm (not preceded by conv/dense)")
		default:
			return nil, fmt.Errorf("quant: unsupported layer %s", folded.Layers[i].Name())
		}
	}

	// Calibrate: input range plus each stage's output range.
	inRange := EmptyRange()
	outRanges := make([]Range, len(stages))
	for i := range outRanges {
		outRanges[i] = EmptyRange()
	}
	for _, x := range calib {
		inRange.Update(x)
		cur := x
		for si, st := range stages {
			cur = (&nn.Sequential{Layers: st.layers}).Infer(cur)
			outRanges[si].Update(cur)
		}
	}

	inScale, inZero := inRange.Params()
	model := &Model{InScale: inScale, InZero: inZero}
	curScale, curZero := inScale, inZero
	for si, st := range stages {
		switch {
		case st.conv != nil:
			outScale, outZero := outRanges[si].Params()
			wq, wScale := QuantizeWeights(st.conv.W.Value)
			accScale := curScale * wScale
			op := &QConv2D{
				KH: st.conv.KH, KW: st.conv.KW,
				Cin: st.conv.Cin, Cout: st.conv.Cout,
				W:       wq,
				Bias:    QuantizeBias(st.conv.B.Value, accScale),
				InScale: curScale, InZero: curZero,
				OutScale: outScale, OutZero: outZero,
				Mult:      NewMultiplier(accScale / outScale),
				FusedReLU: st.fusedReLU,
			}
			model.Ops = append(model.Ops, op)
			curScale, curZero = outScale, outZero
		case st.dense != nil:
			outScale, outZero := outRanges[si].Params()
			wq, wScale := QuantizeWeights(st.dense.W.Value)
			accScale := curScale * wScale
			op := &QDense{
				In: st.dense.In, Out: st.dense.Out,
				W:       wq,
				Bias:    QuantizeBias(st.dense.B.Value, accScale),
				InScale: curScale, InZero: curZero,
				OutScale: outScale, OutZero: outZero,
				Mult:      NewMultiplier(accScale / outScale),
				FusedReLU: st.fusedReLU,
			}
			model.Ops = append(model.Ops, op)
			curScale, curZero = outScale, outZero
		case st.pool:
			model.Ops = append(model.Ops, QMaxPool2D{})
		case st.maxPoints:
			model.Ops = append(model.Ops, QMaxOverPoints{})
		case st.reshape != nil:
			model.Ops = append(model.Ops, QReshape{Dims: st.reshape.TargetDims()})
		case st.group > 0:
			model.Ops = append(model.Ops, QGroup{P: st.group})
		case st.ungroup:
			model.Ops = append(model.Ops, QUngroup{})
		case st.relu:
			model.Ops = append(model.Ops, QReLU{})
		}
	}
	return model, nil
}
