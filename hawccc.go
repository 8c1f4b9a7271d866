// Package hawccc is the public API of the HAWC-CC reproduction: a
// real-time, privacy-preserving LiDAR crowd-counting framework for smart
// campuses ("Smart Blue Light Pole-Based Real-Time Crowd Counting for
// Smart Campuses", ICDCS 2025).
//
// The typical flow:
//
//	train := hawccc.GenerateTrainingData(42, 1200)
//	counter, err := hawccc.Train(train, hawccc.DefaultTrainOptions())
//	...
//	result := counter.Count(frameCloud) // people in one LiDAR frame
//
// Counter wraps the full pipeline of the paper's Figure 3: ROI crop and
// ground segmentation, adaptive-ε DBSCAN clustering, and the Height-Aware
// Human Classifier over each cluster. Quantize converts the classifier to
// int8 for edge deployment. The internal packages expose the substrates
// (simulator, clustering, networks, campus networking) to code inside this
// module; downstream users drive everything through this package and the
// binaries in cmd/.
package hawccc

import (
	"context"
	"fmt"
	"io"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/metrics"
	"hawccc/internal/models"
)

// Point is a single LiDAR return in sensor-frame meters (x down the
// walkway, y across it, z up; ground at z = −3).
type Point = geom.Point3

// Cloud is an unordered LiDAR point cloud.
type Cloud = geom.Cloud

// P constructs a Point.
func P(x, y, z float64) Point { return geom.P(x, y, z) }

// Sample is a labeled cluster for classifier training.
type Sample = dataset.Sample

// Frame is a full LiDAR capture with a crowd-count ground truth.
type Frame = dataset.Frame

// TrainOptions configures Train.
type TrainOptions struct {
	// Epochs is the CNN training budget (default 30).
	Epochs int
	// Seed drives all randomness (default 1).
	Seed int64
	// Progress, if non-nil, receives the epoch index after each epoch.
	Progress func(epoch int)
}

// DefaultTrainOptions returns the deployment training configuration.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 30, Seed: 1}
}

// Counter counts people in LiDAR frames. A trained Counter is safe for
// concurrent use: its classifier derives per-call randomness from cluster
// content and its network runs a stateless inference pass, so any number
// of goroutines may share one Counter — the fan-out pattern for a pole
// node serving several sensors.
//
// A frame is counted one of two ways, both producing bit-identical
// counts: Count, one synchronous pass on the calling goroutine, and
// Stream, a pool of workers that counts as many frames at once as the
// pipeline's Parallelism — runtime.NumCPU() for every Counter built here.
// Evaluate is Stream plus scoring.
type Counter struct {
	pipeline   *counting.Pipeline
	classifier *models.HAWC
}

// Result describes one counted frame.
type Result struct {
	// Count is the number of people detected.
	Count int
	// Clusters is the number of candidate clusters examined.
	Clusters int
	// Latency is the end-to-end processing time of this frame.
	Latency Latency
}

// Latency is the per-stage breakdown of one frame's processing.
type Latency = counting.Timing

// GenerateTrainingData synthesizes a balanced single-person/object
// classification dataset of n samples per class using the built-in
// campus walkway simulator (a stand-in for the paper's pole captures).
func GenerateTrainingData(seed int64, nPerClass int) []Sample {
	return dataset.NewGenerator(seed).Classification(nPerClass)
}

// GenerateFrames synthesizes full LiDAR frames containing between
// minPeople and maxPeople pedestrians plus campus objects.
func GenerateFrames(seed int64, n, minPeople, maxPeople int) []Frame {
	return dataset.NewGenerator(seed).CrowdFrames(n, minPeople, maxPeople, 2)
}

// Train fits the HAWC classifier on labeled cluster samples and assembles
// the full counting pipeline around it.
func Train(samples []Sample, opts TrainOptions) (*Counter, error) {
	if opts.Epochs == 0 {
		opts.Epochs = 30
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	h := models.NewHAWC()
	err := h.Train(samples, models.TrainConfig{
		Epochs:   opts.Epochs,
		Seed:     opts.Seed,
		Progress: opts.Progress,
	})
	if err != nil {
		return nil, fmt.Errorf("hawccc: %w", err)
	}
	return &Counter{pipeline: counting.New(h), classifier: h}, nil
}

// Count processes one raw LiDAR frame on the calling goroutine:
// ingestion, adaptive clustering, and per-cluster classification. A
// Counter is safe for concurrent use: many goroutines may call Count on
// one shared Counter.
func (c *Counter) Count(frame Cloud) Result {
	r := c.pipeline.Count(frame)
	return Result{Count: r.Count, Clusters: r.Clusters, Latency: r.Timing}
}

// StreamResult is one counted frame from a Counter stream.
type StreamResult struct {
	// Seq is the frame's 0-based position on the input channel; results
	// arrive in Seq order.
	Seq uint64
	// E2E is the frame's end-to-end latency through the scheduler, from
	// a worker taking it off the input to its result being emitted in
	// order (Latency covers only compute).
	E2E time.Duration
	Result
}

// Stream counts frames continuously: a pool of workers takes frames
// straight off the input channel, each worker carries one frame from ROI
// crop to count, and a reorderer delivers one Result per frame, in input
// order, on the returned channel. Unlike a Count loop, consecutive
// frames are counted at once on different cores, so a pole node sustains
// a higher frame rate at the same core count. Nothing queues: a frame
// leaves the input only when a worker is free, so a slow consumer
// backpressures the sender instead of growing a backlog.
//
// The stream ends when the input channel closes (every accepted frame's
// result is flushed, then the returned channel closes) or when ctx is
// canceled (in-flight frames are dropped and the channel closes). The
// per-frame counts are bit-identical to Count's: a worker runs the
// function Count runs.
func (c *Counter) Stream(ctx context.Context, frames <-chan Frame) <-chan StreamResult {
	clouds := make(chan Cloud)
	go func() {
		defer close(clouds)
		for {
			select {
			case <-ctx.Done():
				return
			case f, ok := <-frames:
				if !ok {
					return
				}
				select {
				case clouds <- f.Cloud:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	inner := c.pipeline.Stream(ctx, clouds)
	out := make(chan StreamResult)
	go func() {
		defer close(out)
		for r := range inner {
			sr := StreamResult{
				Seq: r.Seq,
				E2E: r.E2E,
				Result: Result{
					Count:    r.Count,
					Clusters: r.Clusters,
					Latency:  r.Timing,
				},
			}
			select {
			case out <- sr:
			case <-ctx.Done():
				for range inner {
					// Drain so the scheduler can wind down.
				}
				return
			}
		}
	}()
	return out
}

// Quantize converts the counter's classifier to int8 inference using the
// given calibration samples (typically ~100 training samples), returning
// a new Counter. The original is unchanged.
func (c *Counter) Quantize(calib []Sample) (*Counter, error) {
	q, err := c.classifier.Quantize(calib)
	if err != nil {
		return nil, fmt.Errorf("hawccc: %w", err)
	}
	return &Counter{pipeline: counting.New(q), classifier: q}, nil
}

// ClassifyCluster labels a single clustered cloud as human or not —
// useful when the caller runs its own segmentation.
func (c *Counter) ClassifyCluster(cluster Cloud) bool {
	return c.classifier.PredictHuman(cluster)
}

// Save serializes the entire trained counter — classifier weights,
// projector identity, and the object pool used for up-sampling — so it
// can be reloaded with Load without retraining.
func (c *Counter) Save(w io.Writer) error {
	if err := c.classifier.Save(w); err != nil {
		return fmt.Errorf("hawccc: %w", err)
	}
	return nil
}

// Load reconstructs a Counter previously written by Save.
func Load(r io.Reader) (*Counter, error) {
	h, err := models.LoadHAWC(r)
	if err != nil {
		return nil, fmt.Errorf("hawccc: %w", err)
	}
	return &Counter{pipeline: counting.New(h), classifier: h}, nil
}

// Evaluation summarizes counting accuracy over labeled frames.
type Evaluation struct {
	MAE, MSE float64
	// Accuracy is 1 − MAE/mean-truth (the paper's percentage accuracy).
	Accuracy float64
}

// Evaluate streams labeled frames through the counter (see Stream), so
// as many frames are counted at once as the counter has workers, and
// scores the counts in input order.
func (c *Counter) Evaluate(frames []Frame) (Evaluation, error) {
	ev, err := counting.Evaluate(c.pipeline, frames)
	if err != nil {
		return Evaluation{}, fmt.Errorf("hawccc: %w", err)
	}
	return Evaluation{MAE: ev.MAE, MSE: ev.MSE, Accuracy: ev.Accuracy()}, nil
}

// EvaluateClassifier measures single-cluster detection accuracy on
// labeled samples, returning accuracy, precision, recall, and F1.
func (c *Counter) EvaluateClassifier(samples []Sample) (acc, precision, recall, f1 float64) {
	conf := models.Evaluate(c.classifier, samples)
	return conf.Accuracy(), conf.Precision(), conf.Recall(), conf.F1()
}

// ROI returns the deployment region of interest (x 12–35 m, the 5 m
// walkway, z within the pole's detection band).
func ROI() (xMin, xMax, yMin, yMax float64) {
	r := ground.DefaultROI()
	return r.XMin, r.XMax, r.YMin, r.YMax
}

// CountingAccuracy computes the paper's accuracy metric from predicted
// and ground-truth counts.
func CountingAccuracy(pred, truth []float64) float64 {
	return metrics.CountingAccuracy(pred, truth)
}
