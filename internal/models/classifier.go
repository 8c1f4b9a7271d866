// Package models assembles the four human/object classifiers the paper
// evaluates (Section VII-B) from the substrate packages: HAWC (the paper's
// contribution — height-aware projection + lightweight CNN), PointNet
// (direct 3D point-set network), a feature-space AutoEncoder, and OC-SVM.
// All implement Classifier so the counting frameworks (internal/counting)
// can swap them.
package models

import (
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/metrics"
)

// Classifier labels one clustered point cloud as human or object.
type Classifier interface {
	// Name identifies the model in reports.
	Name() string
	// PredictHuman classifies a cluster.
	PredictHuman(cloud geom.Cloud) bool
}

// BatchClassifier is implemented by classifiers that can label many
// clusters in one forward pass — one [N, H, W, C] tensor instead of N
// batch-1 passes — which is what lets the GEMM kernels run wide across
// the batch. The counting pipeline classifies a frame's clusters a batch
// at a time when the classifier supports it. PredictHumans(clouds)[i]
// must equal PredictHuman(clouds[i]) for every i regardless of batch
// composition.
type BatchClassifier interface {
	Classifier
	// PredictHumans classifies each cluster; the result has one entry
	// per input, in order.
	PredictHumans(clouds []geom.Cloud) []bool
}

// TrainConfig parameterizes model training. Zero values select each
// model's paper defaults. Minibatch sizes and the learning rate are each
// model's paper constants.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// Seed drives weight init, shuffling, and up-sampling noise.
	Seed int64
	// Progress, if non-nil, is called after each epoch; callers close
	// over the model to trace accuracy curves (Figure 8a).
	Progress func(epoch int)
}

// learningRate is Adam's initial step for every network the paper
// trains (Section VII-A).
const learningRate = 0.001

func (c TrainConfig) withDefaults(epochs int) TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = epochs
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Evaluate runs the classifier over labeled samples and returns the
// confusion matrix ("Human" is the positive class).
func Evaluate(c Classifier, samples []dataset.Sample) metrics.Confusion {
	var conf metrics.Confusion
	for _, s := range samples {
		conf.Add(c.PredictHuman(s.Cloud), s.Human)
	}
	return conf
}

// splitByClass partitions samples into clouds by label.
func splitByClass(samples []dataset.Sample) (humans, objects []geom.Cloud) {
	for _, s := range samples {
		if s.Human {
			humans = append(humans, s.Cloud)
		} else {
			objects = append(objects, s.Cloud)
		}
	}
	return humans, objects
}
