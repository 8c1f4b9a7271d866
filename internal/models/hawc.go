package models

import (
	"errors"
	"math/rand"
	"slices"
	"sync"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/nn"
	"hawccc/internal/projection"
	"hawccc/internal/tensor"
	"hawccc/internal/upsample"
)

// HAWC is the Height-Aware Human Classifier (Section V): noise-controlled
// up-sampling to a fixed size, height-aware projection into a D×D×7 image,
// and a lightweight CNN (three 3×3 conv layers with batch norm and ReLU,
// then two fully connected layers).
type HAWC struct {
	// Projector converts clouds to images; defaults to HAP. Swapped for
	// the Figure 9 projection ablation.
	Projector projection.Projector
	// GaussianSigma, when > 0, replaces object-pool up-sampling with
	// Gaussian-noise up-sampling of that σ (Table III ablation).
	GaussianSigma float64

	network
	target int // N′max
	d      int // image side
	pool   *upsample.Pool
}

var (
	_ Classifier      = (*HAWC)(nil)
	_ BatchClassifier = (*HAWC)(nil)
)

// NewHAWC builds an untrained HAWC with the paper's defaults.
func NewHAWC() *HAWC { return &HAWC{Projector: projection.HAP{}} }

// Name implements Classifier.
func (h *HAWC) Name() string { return h.name("HAWC") }

// Target returns N′max (0 before training).
func (h *HAWC) Target() int { return h.target }

// buildNet constructs the CNN for side d and c input channels. The layer
// widths give ≈56k trainable parameters at D=10/C=7, matching the paper's
// "lightweight CNN ... 62,114 parameters" scale.
func buildHAWCNet(d, c int, rng *rand.Rand) *nn.Sequential {
	half := d / 2
	return (&nn.Sequential{}).Add(
		nn.NewConv2D(3, 3, c, 8, rng),
		nn.NewBatchNorm(8),
		nn.NewReLU(),
		nn.NewConv2D(3, 3, 8, 16, rng),
		nn.NewBatchNorm(16),
		nn.NewReLU(),
		nn.NewMaxPool2D(),
		nn.NewConv2D(3, 3, 16, 16, rng),
		nn.NewBatchNorm(16),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(half*half*16, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 2, rng),
	)
}

// prepare up-samples, frames, and projects one cloud into dst, a flat
// image of imageLen floats, and returns dst: pad to N′max, place the
// candidate in the classifier viewport (cluster-centered,
// ±ViewportWindow), project. The rng drives the up-sampling noise:
// training passes the model's stream (fresh noise every epoch, a natural
// augmentation), inference passes a content-seeded stream (see seeded) so
// predictions are deterministic and order-independent.
func (h *HAWC) prepare(dst []float32, rng *rand.Rand, cloud geom.Cloud) []float32 {
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	if h.GaussianSigma > 0 || h.pool == nil || h.pool.Len() == 0 {
		sigma := h.GaussianSigma
		if sigma == 0 {
			sigma = 3
		}
		sc.up = upsample.Gaussian(sc.up, rng, cloud, sigma, h.target)
	} else {
		sc.up = upsample.FromPool(sc.up, rng, cloud, h.pool, h.target)
	}
	sc.framed = projection.Viewport(sc.framed, sc.up, cloud.Centroid(), projection.ViewportWindow)
	h.Projector.ProjectInto(dst, sc.framed)
	return dst
}

// prepScratch holds the padded and the framed cloud of one prepare call.
type prepScratch struct{ up, framed geom.Cloud }

// prepPool recycles prepare's clouds across calls and goroutines.
var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// image is prepare into a new image.
func (h *HAWC) image(rng *rand.Rand, cloud geom.Cloud) []float32 {
	return h.prepare(make([]float32, h.imageLen()), rng, cloud)
}

// imageLen is the length of one flat classifier input, d·d·C.
func (h *HAWC) imageLen() int { return h.d * h.d * h.Projector.Channels() }

// imageShape is the tensor shape of n classifier inputs, [n, d, d, C].
func (h *HAWC) imageShape(n int) []int { return []int{n, h.d, h.d, h.Projector.Channels()} }

// rngPool recycles the padding-noise streams of inference calls.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seeded returns prepare(rng, cloud), with rng the padding-noise stream
// for one inference call, seeded from the cluster content. Same cluster →
// same noise → same prediction, at any worker count and in any order;
// distinct calls share no state, so prediction is safe for concurrent
// use. The stream is a pooled rand.Rand re-seeded with
// upsample.ContentSeed, which draws what a fresh one would without
// allocating its ~4.9 KB source per cluster. It goes back to the pool
// when prepare returns, so prepare must not keep it.
func seeded[T any](cloud geom.Cloud, prepare func(*rand.Rand, geom.Cloud) T) T {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(upsample.ContentSeed(cloud))
	return prepare(rng, cloud)
}

// hawcBatch is HAWC's training minibatch (Section VII-A).
const hawcBatch = 32

// Train fits HAWC on cluster samples. Defaults follow Section VII-A:
// Adam, lr 0.001, batch 32.
func (h *HAWC) Train(samples []dataset.Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return errors.New("models: no training samples")
	}
	cfg = cfg.withDefaults(30)
	rng := rand.New(rand.NewSource(cfg.Seed))
	if h.Projector == nil {
		h.Projector = projection.HAP{}
	}

	h.target = upsample.TargetSize(dataset.MaxPoints(samples))
	h.d = upsample.Side(h.target)
	_, objects := splitByClass(samples)
	h.pool = upsample.NewPool(objects)
	h.net = buildHAWCNet(h.d, h.Projector.Channels(), rng)
	train(h.net, samples, cfg, rng, hawcBatch, h.image, h.imageShape(1)...)
	return nil
}

// PredictHuman implements Classifier: PredictHumans of one cluster.
func (h *HAWC) PredictHuman(cloud geom.Cloud) bool {
	return h.PredictHumans([]geom.Cloud{cloud})[0]
}

// PredictHumans implements BatchClassifier: all clusters are prepared
// into one [N, d, d, C] tensor and classified in a single forward pass,
// so the GEMM kernels run across the whole batch. Each cluster is
// projected straight into its slot of the tensor, whose storage is
// pooled across calls. The float network packs its weights once per
// model, not per batch: its layers keep their GEMM panels until the
// weights change. Per-cluster padding noise stays content-seeded, and
// Infer is bit-identical across batch sizes, so a cluster's label does
// not depend on how a frame is batched. It is safe for concurrent use
// once trained: the noise is per call and neither inference pass writes
// shared state.
func (h *HAWC) PredictHumans(clouds []geom.Cloud) []bool {
	if h.net == nil {
		panic("models: HAWC not trained")
	}
	if len(clouds) == 0 {
		return nil
	}
	imgLen := h.imageLen()
	buf := batchPool.Get().(*[]float32)
	*buf = slices.Grow((*buf)[:0], len(clouds)*imgLen)[:len(clouds)*imgLen]
	x := tensor.FromSlice(*buf, h.imageShape(len(clouds))...)
	for i, cloud := range clouds {
		slot := x.Data[i*imgLen : (i+1)*imgLen]
		seeded(cloud, func(rng *rand.Rand, cloud geom.Cloud) []float32 {
			return h.prepare(slot, rng, cloud)
		})
	}
	out := h.infer(x)
	batchPool.Put(buf)
	preds := make([]bool, len(clouds))
	for i, class := range nn.Argmax(out) {
		preds[i] = class == 1
	}
	return preds
}

// batchPool recycles PredictHumans' input tensors. Both inference passes
// return a result detached from their input, so the storage goes back as
// soon as the pass returns.
var batchPool = sync.Pool{New: func() any { return new([]float32) }}

// Quantize returns a copy of h that runs int8 inference, calibrated on the
// given samples (the paper uses 100 random training samples, Section VI).
func (h *HAWC) Quantize(calib []dataset.Sample) (*HAWC, error) {
	q := *h
	var err error
	if q.network, err = h.quantize("HAWC", calib, func(c geom.Cloud) *tensor.Tensor {
		return tensor.FromSlice(seeded(c, h.image), h.imageShape(1)...)
	}); err != nil {
		return nil, err
	}
	return &q, nil
}

// PoolClouds exposes the object captures in the up-sampling pool (empty
// before training). Used by tooling that needs calibration material from
// a loaded model.
func (h *HAWC) PoolClouds() []geom.Cloud {
	if h.pool == nil {
		return nil
	}
	return h.pool.Clouds()
}
