package models

import (
	"errors"
	"fmt"
	"math/rand"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/nn"
	"hawccc/internal/quant"
	"hawccc/internal/tensor"
)

// network is what HAWC, PointNet and the AutoEncoder share: the float
// network they train and, once quantized, the int8 graph that replaces it
// at inference (Section VI).
type network struct {
	net  *nn.Sequential
	qnet *quant.Model
}

// Network exposes the float network (nil before training) for device
// cost modeling and inspection.
func (n *network) Network() *nn.Sequential { return n.net }

// QuantNetwork exposes the int8 graph (nil unless quantized).
func (n *network) QuantNetwork() *quant.Model { return n.qnet }

// name is model's report name, with "-int8" once it is quantized.
func (n *network) name(model string) string {
	if n.qnet != nil {
		return model + "-int8"
	}
	return model
}

// infer runs x through the int8 graph when there is one and through the
// float network otherwise. Both passes write no shared state and return
// a result detached from x.
func (n *network) infer(x *tensor.Tensor) *tensor.Tensor {
	if n.qnet != nil {
		return n.qnet.Forward(x)
	}
	return n.net.Infer(x)
}

// quantize returns n with an int8 graph calibrated on the inputs that
// input makes of calib's clouds (the paper uses 100 random training
// samples, Section VI). model names the classifier in errors.
func (n network) quantize(model string, calib []dataset.Sample, input func(geom.Cloud) *tensor.Tensor) (network, error) {
	if n.net == nil {
		return n, fmt.Errorf("models: quantizing untrained %s", model)
	}
	if len(calib) == 0 {
		return n, errors.New("models: empty calibration set")
	}
	xs := make([]*tensor.Tensor, len(calib))
	for i, s := range calib {
		xs[i] = input(s.Cloud)
	}
	qm, err := quant.Quantize(n.net, xs)
	if err != nil {
		return n, fmt.Errorf("models: quantize %s: %w", model, err)
	}
	n.qnet = qm
	return n, nil
}

// train fits net, a classifier over two classes (Human is class 1), with
// the minibatch loop HAWC and PointNet share (Section VII-A): Adam from
// lr 0.001, softmax cross-entropy, the rate ×0.3 at 50% and 80% of the
// epochs. Each epoch re-prepares every sample with rng — fresh
// up-sampling noise, a natural augmentation that keeps the classifier
// from memorizing specific draws — then shuffles with rng. input makes
// one sample's flat input; shape is its tensor shape, whose leading
// dimension a batch of b samples multiplies by b.
func train(net *nn.Sequential, samples []dataset.Sample, cfg TrainConfig, rng *rand.Rand, batch int,
	input func(*rand.Rand, geom.Cloud) []float32, shape ...int) {
	opt := nn.NewAdam(learningRate)
	n := len(samples)
	inputs := make([][]float32, n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch == cfg.Epochs/2 || epoch == cfg.Epochs*4/5 {
			opt.LR *= 0.3
		}
		for i, s := range samples {
			inputs[i] = input(rng, s.Cloud)
		}
		perm := rng.Perm(n)
		for start := 0; start < n; start += batch {
			idx := perm[start:min(start+batch, n)]
			dims := append([]int{shape[0] * len(idx)}, shape[1:]...)
			x := tensor.New(dims...)
			y := make([]int, len(idx))
			size := len(x.Data) / len(idx)
			for bi, i := range idx {
				copy(x.Data[bi*size:(bi+1)*size], inputs[i])
				if samples[i].Human {
					y[bi] = 1
				}
			}
			out := net.Forward(x)
			_, grad := nn.SoftmaxCrossEntropy(out, y)
			net.Backward(grad)
			opt.Step(net.Params())
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch)
		}
	}
}
