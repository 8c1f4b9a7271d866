package models

import (
	"errors"
	"math/rand"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/nn"
	"hawccc/internal/tensor"
	"hawccc/internal/upsample"
)

// PointNet is the direct 3D point-set classifier of Qi et al. used as the
// strongest baseline (Section VII-A): a shared per-point MLP lifts each
// point to a feature vector, a symmetric max-pooling aggregates the cloud,
// and a fully connected head classifies the global feature. PointNet-CC
// reuses HAWC-CC's up-sampling step to satisfy the fixed-size input
// requirement.
//
// The network here keeps the original's structure (shared MLP → max pool →
// FC head with dropout) at reduced widths (≈80k parameters vs the paper's
// 747k) so CPU-only training stays tractable; the accuracy/robustness
// relationships of Tables I and V are preserved (see DESIGN.md).
type PointNet struct {
	network
	target int
	pool   *upsample.Pool
}

var _ Classifier = (*PointNet)(nil)

// NewPointNet builds an untrained PointNet.
func NewPointNet() *PointNet { return &PointNet{} }

// Name implements Classifier.
func (p *PointNet) Name() string { return p.name("PointNet") }

// Target returns N′max (0 before training).
func (p *PointNet) Target() int { return p.target }

func buildPointNet(points int, rng *rand.Rand) *nn.Sequential {
	return (&nn.Sequential{}).Add(
		// Shared per-point MLP: points ride in the batch dimension.
		nn.NewDense(3, 64, rng),
		nn.NewBatchNorm(64),
		nn.NewReLU(),
		nn.NewDense(64, 64, rng),
		nn.NewBatchNorm(64),
		nn.NewReLU(),
		nn.NewDense(64, 128, rng),
		nn.NewBatchNorm(128),
		nn.NewReLU(),
		nn.NewDense(128, 256, rng),
		nn.NewBatchNorm(256),
		nn.NewReLU(),
		// Aggregate to a global feature.
		nn.NewGroup(points),
		nn.NewMaxOverPoints(),
		// Classification head.
		nn.NewDense(256, 128, rng),
		nn.NewReLU(),
		nn.NewDropout(0.3, rng),
		nn.NewDense(128, 2, rng),
	)
}

// preparePoints up-samples one cloud into a flat [target × 3] vector.
// Per the paper's integration, PointNet-CC "directly processes 3D point
// clouds" with only the up-sampling step added: points stay in the sensor
// frame (rebased on the ROI center and ground plane, a fixed affine shift)
// rather than HAWC's cluster-centered viewport. The resulting
// high-dimensional raw input space is exactly what the paper blames for
// PointNet's noise sensitivity and data hunger.
func (p *PointNet) preparePoints(rng *rand.Rand, cloud geom.Cloud) []float32 {
	var up geom.Cloud
	if p.pool != nil && p.pool.Len() > 0 {
		up = upsample.FromPool(nil, rng, cloud, p.pool, p.target)
	} else {
		up = upsample.Gaussian(nil, rng, cloud, 3, p.target)
	}
	const roiCenterX, groundZ = 23.5, -3.0
	out := make([]float32, p.target*3)
	for i, pt := range up {
		out[i*3+0] = float32(pt.X - roiCenterX)
		out[i*3+1] = float32(pt.Y)
		out[i*3+2] = float32(pt.Z - groundZ)
	}
	return out
}

// pointNetBatch is PointNet's training minibatch (Section VII-A).
const pointNetBatch = 64

// Train fits PointNet (paper defaults: Adam, lr 0.001, batch 64).
func (p *PointNet) Train(samples []dataset.Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return errors.New("models: no training samples")
	}
	cfg = cfg.withDefaults(14)
	rng := rand.New(rand.NewSource(cfg.Seed))

	p.target = upsample.TargetSize(dataset.MaxPoints(samples))
	_, objects := splitByClass(samples)
	p.pool = upsample.NewPool(objects)
	p.net = buildPointNet(p.target, rng)
	// Points ride in the batch dimension: a batch is [b·P, 3].
	train(p.net, samples, cfg, rng, pointNetBatch, p.preparePoints, p.target, 3)
	return nil
}

// PredictHuman implements Classifier. Like HAWC, it is safe for concurrent
// use once trained: content-seeded per-call padding noise plus the
// stateless Infer / int8 forward passes.
func (p *PointNet) PredictHuman(cloud geom.Cloud) bool {
	if p.net == nil {
		panic("models: PointNet not trained")
	}
	return nn.Argmax(p.infer(p.input(cloud)))[0] == 1
}

// input is one cloud's network input, [P, 3], with content-seeded noise.
func (p *PointNet) input(cloud geom.Cloud) *tensor.Tensor {
	return tensor.FromSlice(seeded(cloud, p.preparePoints), p.target, 3)
}

// Quantize returns an int8-inference copy calibrated on the given samples.
func (p *PointNet) Quantize(calib []dataset.Sample) (*PointNet, error) {
	q := *p
	var err error
	if q.network, err = p.quantize("PointNet", calib, p.input); err != nil {
		return nil, err
	}
	return &q, nil
}
