package models

import (
	"errors"
	"fmt"
	"math/rand"

	"hawccc/internal/dataset"
	"hawccc/internal/features"
	"hawccc/internal/geom"
	"hawccc/internal/svm"
	"hawccc/internal/upsample"
)

// OCSVM is the OC-SVM-CC baseline classifier (Section VII-A, after
// Schölkopf et al.): slice features plus a one-class ν-SVM trained on the
// "Human" class, treating the origin of the kernel space as the only
// member of the second class. The paper excludes it from quantized
// comparisons because support-vector kernel evaluation is incompatible
// with reduced bit widths; it therefore has no Quantize method.
// Like the other integrated baselines, OC-SVM-CC first applies the
// framework's noise-controlled up-sampling and then extracts features from
// the padded cloud; the padding noise blurs the single-class manifold until
// the ν = 0.01 support region covers essentially the whole feature space,
//
// Following the cited implementation, raw slice features go to an RBF
// kernel with γ = 1/numFeatures; at raw meter scale that kernel saturates
// near 1 for every pair, the decision region swallows the whole space,
// and the classifier labels every sample "human" — exactly the degenerate
// 48.6%-accuracy behavior Table I reports.
type OCSVM struct {
	model  *svm.OneClass
	target int
	pool   *upsample.Pool
}

var _ Classifier = (*OCSVM)(nil)

// NewOCSVM builds an untrained OC-SVM with the paper's settings
// (ν = 0.01, γ = 1/numFeatures).
func NewOCSVM() *OCSVM { return &OCSVM{} }

// Name implements Classifier.
func (o *OCSVM) Name() string { return "OC-SVM" }

// NumSupportVectors returns the trained support-vector count (0 before
// training).
func (o *OCSVM) NumSupportVectors() int {
	if o.model == nil {
		return 0
	}
	return o.model.NumSupportVectors()
}

// FeatureDim returns the classifier's input dimensionality.
func (o *OCSVM) FeatureDim() int { return features.VectorLen }

// Train fits the one-class SVM on the human samples with the paper's
// ν/γ (svm.DefaultConfig). Epochs is ignored; Seed drives the SMO pair
// order.
func (o *OCSVM) Train(samples []dataset.Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return errors.New("models: no training samples")
	}
	cfg = cfg.withDefaults(1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	o.target = upsample.TargetSize(dataset.MaxPoints(samples))
	_, objects := splitByClass(samples)
	o.pool = upsample.NewPool(objects)

	var humanVecs [][]float64
	for _, s := range samples {
		v := o.extract(rng, s.Cloud)
		if s.Human {
			humanVecs = append(humanVecs, v)
		}
	}
	if len(humanVecs) == 0 {
		return errors.New("models: OC-SVM needs at least one human sample")
	}
	svmCfg := svm.DefaultConfig()
	svmCfg.Seed = cfg.Seed
	m, err := svm.Train(humanVecs, svmCfg)
	if err != nil {
		return fmt.Errorf("models: OC-SVM train: %w", err)
	}
	o.model = m
	return nil
}

// extract up-samples the cluster (the paper's added step) and computes
// the slice feature vector of the padded cloud. The rng drives the padding
// noise; inference passes a content-seeded stream.
func (o *OCSVM) extract(rng *rand.Rand, cloud geom.Cloud) []float64 {
	up := cloud
	if o.pool != nil && o.pool.Len() > 0 && o.target > 0 {
		up = upsample.FromPool(nil, rng, cloud, o.pool, o.target)
	}
	return features.Extract(up)
}

// PredictHuman implements Classifier. Safe for concurrent use once
// trained: the SVM decision function is read-only and padding noise comes
// from a per-call content-seeded RNG.
func (o *OCSVM) PredictHuman(cloud geom.Cloud) bool {
	if o.model == nil {
		panic("models: OC-SVM not trained")
	}
	return o.model.Predict(seeded(cloud, o.extract))
}
