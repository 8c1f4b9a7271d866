package models

import (
	"errors"
	"math/rand"
	"sort"

	"hawccc/internal/dataset"
	"hawccc/internal/features"
	"hawccc/internal/geom"
	"hawccc/internal/nn"
	"hawccc/internal/tensor"
	"hawccc/internal/upsample"
)

// AutoEncoder is the AutoEncoder-CC baseline classifier (Section VII-A,
// after Liou et al.): following the paper's integration recipe ("replacing
// HAWC and adding steps (e.g., feature extraction, up-sampling)"), each
// cluster is first noise-controlled up-sampled like every other framework,
// then hand-crafted slice features (internal/features) are extracted and
// compressed through a bottleneck autoencoder trained on "Human" samples
// only; a cluster is classified human when its reconstruction error falls
// below a threshold fit on the training distribution. Extracting features
// from the padded cloud blurs the class manifolds — the structural reason
// this baseline lands far below HAWC in Table I.
//
// The slice features go to the autoencoder raw, as in the paper's
// baseline (77.94% accuracy): their uneven scales let a few large
// dimensions dominate the reconstruction loss.
type AutoEncoder struct {
	network
	threshold float64
	target    int
	pool      *upsample.Pool
}

var _ Classifier = (*AutoEncoder)(nil)

// featureWindow gates feature extraction to points within this xy
// distance (meters) of the cluster centroid after up-sampling. Leigh et
// al.'s person features are local, so the extraction ignores far-field
// padding while nearby padding still contaminates the slices — the
// mid-tier accuracy Table I shows.
const featureWindow = 0.95

// autoEncoderBatch is the AutoEncoder's training minibatch (Section
// VII-A).
const autoEncoderBatch = 512

// NewAutoEncoder builds an untrained AutoEncoder classifier.
func NewAutoEncoder() *AutoEncoder { return &AutoEncoder{} }

// Name implements Classifier.
func (a *AutoEncoder) Name() string { return a.name("AutoEncoder") }

// thresholdPercentile: human training errors below this percentile are
// "inside" the learned manifold.
const thresholdPercentile = 0.97

func buildAutoEncoder(dim int, rng *rand.Rand) *nn.Sequential {
	// Three-layer encoder, bottleneck, three-layer decoder (Liou et al.):
	// dim→64→32→16→32→64→dim with a linear output.
	return (&nn.Sequential{}).Add(
		nn.NewDense(dim, 64, rng),
		nn.NewReLU(),
		nn.NewDense(64, 32, rng),
		nn.NewReLU(),
		nn.NewDense(32, 16, rng),
		nn.NewReLU(),
		nn.NewDense(16, 32, rng),
		nn.NewReLU(),
		nn.NewDense(32, 64, rng),
		nn.NewReLU(),
		nn.NewDense(64, dim, rng),
	)
}

// Train fits the autoencoder on the human samples (paper defaults: Adam,
// lr 0.001, batch 512) and calibrates the decision threshold.
func (a *AutoEncoder) Train(samples []dataset.Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return errors.New("models: no training samples")
	}
	cfg = cfg.withDefaults(60)
	rng := rand.New(rand.NewSource(cfg.Seed))
	a.target = upsample.TargetSize(dataset.MaxPoints(samples))
	_, objects := splitByClass(samples)
	a.pool = upsample.NewPool(objects)

	var humanVecs [][]float32
	for _, s := range samples {
		v := a.extract(rng, s.Cloud)
		if s.Human {
			humanVecs = append(humanVecs, toF32(v))
		}
	}
	if len(humanVecs) == 0 {
		return errors.New("models: AutoEncoder needs at least one human sample")
	}

	dim := features.VectorLen
	a.net = buildAutoEncoder(dim, rng)

	opt := nn.NewAdam(learningRate)
	n := len(humanVecs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += autoEncoderBatch {
			end := start + autoEncoderBatch
			if end > n {
				end = n
			}
			b := end - start
			x := tensor.New(b, dim)
			for bi := 0; bi < b; bi++ {
				copy(x.Data[bi*dim:(bi+1)*dim], humanVecs[perm[start+bi]])
			}
			out := a.net.Forward(x)
			_, grad := nn.MSELoss(out, x)
			a.net.Backward(grad)
			opt.Step(a.net.Params())
		}
		if cfg.Progress != nil {
			// Threshold must exist for mid-training evaluation.
			a.fitThreshold(humanVecs)
			cfg.Progress(epoch)
		}
	}
	a.fitThreshold(humanVecs)
	return nil
}

// fitThreshold sets the decision threshold at a high percentile of the
// human training reconstruction errors.
func (a *AutoEncoder) fitThreshold(humanVecs [][]float32) {
	errs := make([]float64, len(humanVecs))
	for i, v := range humanVecs {
		errs[i] = a.reconError(v)
	}
	sort.Float64s(errs)
	idx := int(float64(len(errs)-1) * thresholdPercentile)
	a.threshold = errs[idx]
	if a.threshold <= 0 {
		a.threshold = 1e-6
	}
}

// reconError is the mean squared reconstruction error of one feature
// vector.
func (a *AutoEncoder) reconError(v []float32) float64 {
	dim := len(v)
	out := a.infer(tensor.FromSlice(v, 1, dim))
	var sum float64
	for i := range out.Data {
		d := float64(out.Data[i] - v[i])
		sum += d * d
	}
	return sum / float64(dim)
}

// extract up-samples the cluster (the paper's added step), applies the
// local feature window, and computes the slice feature vector. The rng
// drives the padding noise; inference passes a content-seeded stream.
func (a *AutoEncoder) extract(rng *rand.Rand, cloud geom.Cloud) []float64 {
	up := cloud
	if a.pool != nil && a.pool.Len() > 0 && a.target > 0 {
		up = upsample.FromPool(nil, rng, cloud, a.pool, a.target)
	}
	c := cloud.Centroid()
	const w = featureWindow
	up = up.Filter(func(p geom.Point3) bool {
		return p.X >= c.X-w && p.X <= c.X+w && p.Y >= c.Y-w && p.Y <= c.Y+w
	})
	return features.Extract(up)
}

// PredictHuman implements Classifier. Safe for concurrent use once
// trained: content-seeded per-call padding noise plus the stateless
// Infer / int8 reconstruction passes.
func (a *AutoEncoder) PredictHuman(cloud geom.Cloud) bool {
	if a.net == nil {
		panic("models: AutoEncoder not trained")
	}
	v := toF32(seeded(cloud, a.extract))
	return a.reconError(v) <= a.threshold
}

// Quantize returns an int8-inference copy calibrated on the given samples.
// The decision threshold is kept from FP training, so quantization noise
// in the reconstructions translates directly into accuracy loss — the
// effect Table I measures.
func (a *AutoEncoder) Quantize(calib []dataset.Sample) (*AutoEncoder, error) {
	q := *a
	var err error
	if q.network, err = a.quantize("AutoEncoder", calib, func(c geom.Cloud) *tensor.Tensor {
		return tensor.FromSlice(toF32(seeded(c, a.extract)), 1, features.VectorLen)
	}); err != nil {
		return nil, err
	}
	return &q, nil
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}
