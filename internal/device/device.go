// Package device models the inference latency of the two edge devices the
// paper deploys on (Section VI): the Nvidia Jetson Nano (general-purpose
// GPU, CUDA/cuDNN) and the Google Coral Dev Board (edge TPU that executes
// only int8 graphs and handles convolution-like ops far better than
// fully connected layers). We cannot run the physical hardware, so Table
// II's numbers are regenerated from an op-level cost model: each layer of
// a model's real op graph is costed by its multiply-accumulate volume at
// the device's sustained rate for its op class, plus per-op dispatch
// overhead. The model reproduces the structural effects the paper
// highlights — the TPU's large per-op overhead dominating small models,
// FC-heavy AutoEncoder *regressing* under int8 on the TPU while conv
// models accelerate, and PointNet's 3D cost dwarfing HAWC. See DESIGN.md
// for the substitution argument.
package device

import (
	"fmt"
	"time"

	"hawccc/internal/nn"
	"hawccc/internal/quant"
	"hawccc/internal/tensor"
)

// OpClass distinguishes how devices execute an op.
type OpClass int

// Op classes.
const (
	// OpConvLike covers convolutions and batched per-point dense layers
	// (compiled to 1×1 convolutions on the TPU).
	OpConvLike OpClass = iota
	// OpFCLike covers batch-1 fully connected layers.
	OpFCLike
	// OpLight covers pooling, reshapes, activations.
	OpLight
)

// OpCost is one op's work.
type OpCost struct {
	Name  string
	Class OpClass
	MACs  int64
}

// Graph is a costed inference graph.
type Graph struct {
	Ops []OpCost
}

// Profile is an edge device's execution characteristics. Rates are in
// MACs per second; overheads are per dispatched op and per inference.
type Profile struct {
	Name string

	// FP32 execution (GPU on the Jetson; CPU fallback on the Coral —
	// the edge TPU cannot run float graphs).
	ConvRateFP32, FCRateFP32 float64
	PerOpFP32                time.Duration

	// Int8 execution (GPU int8 paths on the Jetson; the TPU on the Coral).
	ConvRateInt8, FCRateInt8 float64
	PerOpInt8                time.Duration

	// PerInference is the fixed invoke overhead.
	PerInference time.Duration
}

// JetsonNano models the Nvidia Jetson Nano (128-core Maxwell GPU, 4 GB).
// The GPU runs both precisions; int8 helps convolution throughput much
// more than the memory-bound fully connected layers.
var JetsonNano = Profile{
	Name:         "Jetson Nano",
	ConvRateFP32: 25e9,
	FCRateFP32:   12e9,
	PerOpFP32:    12 * time.Microsecond,
	ConvRateInt8: 50e9,
	FCRateInt8:   14e9,
	PerOpInt8:    8 * time.Microsecond,
	PerInference: 60 * time.Microsecond,
}

// CoralDevBoard models the Google Coral Dev Board: float graphs fall back
// to the slow quad-A53 CPU; int8 graphs run on the edge TPU, which is
// extremely fast for conv-like ops but pays a large per-op dispatch cost
// and executes fully connected layers poorly — the structural reason the
// paper's 8-bit AutoEncoder is *slower* than its float version (Table II).
var CoralDevBoard = Profile{
	Name:         "Coral Dev Board",
	ConvRateFP32: 0.6e9, // quad-A53 CPU fallback
	FCRateFP32:   0.5e9,
	PerOpFP32:    5 * time.Microsecond,
	ConvRateInt8: 300e9, // edge TPU
	FCRateInt8:   0.4e9,
	PerOpInt8:    90 * time.Microsecond,
	PerInference: 80 * time.Microsecond,
}

// EstimateFP32 returns the modeled single-inference latency of graph g.
func (p Profile) EstimateFP32(g Graph) time.Duration {
	return p.estimate(g, p.ConvRateFP32, p.FCRateFP32, p.PerOpFP32)
}

// EstimateInt8 returns the modeled single-inference latency of the int8
// version of graph g.
func (p Profile) EstimateInt8(g Graph) time.Duration {
	return p.estimate(g, p.ConvRateInt8, p.FCRateInt8, p.PerOpInt8)
}

func (p Profile) estimate(g Graph, convRate, fcRate float64, perOp time.Duration) time.Duration {
	total := p.PerInference
	for _, op := range g.Ops {
		switch op.Class {
		case OpConvLike:
			total += time.Duration(float64(op.MACs) / convRate * float64(time.Second))
			total += perOp
		case OpFCLike:
			total += time.Duration(float64(op.MACs) / fcRate * float64(time.Second))
			total += perOp
		case OpLight:
			// Fused with neighbors on both runtimes; dispatch only.
			total += perOp / 4
		}
	}
	return total
}

// FromSequential costs a float model's graph for one inference with the
// given example input (the batch dimension of the example determines
// whether dense layers are per-point batched, i.e. conv-like). It runs
// the inference pass, which writes no layer state, so a shared model may
// be costed from any number of goroutines.
func FromSequential(m *nn.Sequential, example *tensor.Tensor) Graph {
	var g Graph
	var sc nn.Scratch
	x := example
	for _, l := range m.Layers {
		in := x
		x = l.Infer(x, &sc)
		g.Ops = append(g.Ops, costLayer(l, in, x))
	}
	return g
}

func costLayer(l nn.Layer, in, out *tensor.Tensor) OpCost {
	switch layer := l.(type) {
	case *nn.Conv2D:
		h, w := out.Dim(1), out.Dim(2)
		macs := int64(out.Dim(0)) * int64(h) * int64(w) *
			int64(layer.KH) * int64(layer.KW) * int64(layer.Cin) * int64(layer.Cout)
		return OpCost{Name: l.Name(), Class: OpConvLike, MACs: macs}
	case *nn.Dense:
		n := int64(in.Dim(0))
		macs := n * int64(layer.In) * int64(layer.Out)
		class := OpFCLike
		if n > 1 {
			class = OpConvLike // per-point shared MLP compiles to 1×1 conv
		}
		return OpCost{Name: l.Name(), Class: class, MACs: macs}
	case *nn.BatchNorm:
		// Folded into the preceding layer at deployment.
		return OpCost{Name: l.Name(), Class: OpLight}
	default:
		return OpCost{Name: l.Name(), Class: OpLight}
	}
}

// FromQuant costs an int8 graph for one inference with the given example
// input shape.
func FromQuant(m *quant.Model, example *tensor.Tensor) Graph {
	var g Graph
	q := quant.QuantizeActivations(example, m.InScale, m.InZero)
	for _, op := range m.Ops {
		in := q
		q = op.Apply(q)
		g.Ops = append(g.Ops, costQOp(op, in, q))
	}
	return g
}

func costQOp(op quant.QOp, in, out *quant.QTensor) OpCost {
	switch o := op.(type) {
	case *quant.QConv2D:
		h, w := out.Dim(1), out.Dim(2)
		macs := int64(out.Dim(0)) * int64(h) * int64(w) *
			int64(o.KH) * int64(o.KW) * int64(o.Cin) * int64(o.Cout)
		return OpCost{Name: op.Name(), Class: OpConvLike, MACs: macs}
	case *quant.QDense:
		n := int64(in.Dim(0))
		macs := n * int64(o.In) * int64(o.Out)
		class := OpFCLike
		if n > 1 {
			class = OpConvLike
		}
		return OpCost{Name: op.Name(), Class: class, MACs: macs}
	default:
		return OpCost{Name: op.Name(), Class: OpLight}
	}
}

// SVMGraph costs a one-class SVM decision: one kernel evaluation per
// support vector (dim MACs each) plus the weighted sum. SVM inference is
// CPU-bound FC-like work; it has no int8 path (Table I/II exclude it).
func SVMGraph(numSupportVectors, dim int) Graph {
	return Graph{Ops: []OpCost{{
		Name:  fmt.Sprintf("OC-SVM(%d sv × %d dim)", numSupportVectors, dim),
		Class: OpFCLike,
		MACs:  int64(numSupportVectors) * int64(dim+1),
	}}}
}
