// Package counting implements the end-to-end crowd-counting frameworks of
// the paper (Figure 3): ingest a raw LiDAR frame (ROI crop + ground
// segmentation), partition it into clusters (adaptive DBSCAN by default),
// classify every cluster Human/Object, and report the number of Human
// clusters. Swapping the classifier yields the evaluated frameworks:
// HAWC-CC, PointNet-CC, AutoEncoder-CC, and OC-SVM-CC (Section VII-A);
// swapping the clusterer yields the Table IV ablation.
package counting

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hawccc/internal/cluster"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/metrics"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// ScratchClusterer partitions an ingested frame into candidate clusters
// against a caller-owned cluster.Scratch, so the neighbour graph and every
// working buffer are recycled with the pooled frame job and the
// steady-state geometry stage performs no heap allocation. The returned
// result may alias the Scratch's buffers; the pipeline materializes
// clusters out of it before the next frame reuses the job.
type ScratchClusterer interface {
	Name() string
	ClusterScratch(s *cluster.Scratch, cloud geom.Cloud) cluster.Result
}

// AdaptiveClusterer is the paper's adaptive-ε DBSCAN (Section IV) at
// cluster.DefaultAdaptiveConfig.
type AdaptiveClusterer struct{}

var _ ScratchClusterer = AdaptiveClusterer{}

// NewAdaptiveClusterer returns the deployment clusterer.
func NewAdaptiveClusterer() AdaptiveClusterer { return AdaptiveClusterer{} }

// Name implements ScratchClusterer.
func (AdaptiveClusterer) Name() string { return "adaptive" }

// ClusterScratch implements ScratchClusterer.
func (AdaptiveClusterer) ClusterScratch(s *cluster.Scratch, cloud geom.Cloud) cluster.Result {
	return s.Adaptive(cloud, cluster.DefaultAdaptiveConfig())
}

// FixedEpsClusterer is DBSCAN with a fixed ε and the adaptive
// configuration's minPts (Table IV baseline).
type FixedEpsClusterer struct {
	Eps float64
}

var _ ScratchClusterer = FixedEpsClusterer{}

// Name implements ScratchClusterer.
func (f FixedEpsClusterer) Name() string { return fmt.Sprintf("fixed-eps(%.1f)", f.Eps) }

// ClusterScratch implements ScratchClusterer.
func (f FixedEpsClusterer) ClusterScratch(s *cluster.Scratch, cloud geom.Cloud) cluster.Result {
	return s.DBSCAN(cloud, f.Eps, cluster.DefaultAdaptiveConfig().MinPts)
}

// hierarchicalCut is the single-linkage cut distance (m): sub-body-scale
// linkage, the failure mode Table IV shows.
const hierarchicalCut = 0.12

// HierarchicalClusterer is single-linkage clustering cut at
// hierarchicalCut (Table IV baseline; drastically over-counts).
type HierarchicalClusterer struct{}

var _ ScratchClusterer = HierarchicalClusterer{}

// Name implements ScratchClusterer.
func (HierarchicalClusterer) Name() string { return "hierarchical" }

// ClusterScratch implements ScratchClusterer. Single linkage allocates
// its own working set; the scratch is unused.
func (HierarchicalClusterer) ClusterScratch(_ *cluster.Scratch, cloud geom.Cloud) cluster.Result {
	return cluster.Hierarchical(cloud, hierarchicalCut)
}

// Timing is the per-stage latency breakdown of one frame — the frame's
// span, with one segment per pipeline stage.
type Timing struct {
	// ROI and Ground split the ingest stage: region-of-interest crop,
	// then ground segmentation.
	ROI      time.Duration
	Ground   time.Duration
	Cluster  time.Duration
	Classify time.Duration
}

// Total returns the end-to-end frame latency.
func (t Timing) Total() time.Duration { return t.ROI + t.Ground + t.Cluster + t.Classify }

// Result describes one counted frame.
type Result struct {
	// Count is the number of clusters classified Human.
	Count int
	// Clusters is the number of candidate clusters evaluated.
	Clusters int
	// Noise is the number of points discarded as clustering noise.
	Noise int
	// Timing is the per-stage latency breakdown.
	Timing Timing
}

// Pipeline is a configured counting framework.
type Pipeline struct {
	// ROI and ground segmentation applied at ingest.
	ROI ground.ROI
	// Clusterer partitions the frame (default: adaptive DBSCAN).
	Clusterer ScratchClusterer
	// Classifier labels each cluster (HAWC for HAWC-CC, etc.).
	Classifier models.Classifier
	// Parallelism is the number of frames counted at once inside a Stream
	// (and so an Evaluate) call, each on its own goroutine; Count runs on
	// the caller's goroutine and does not read it. 1 or less counts one
	// frame at a time; New sets runtime.NumCPU(), matching pole hardware
	// where every core counts toward the frame budget. Counts are
	// identical at every value — a frame is counted the same way on any
	// worker. Values above 1 require a Classifier that is safe for
	// concurrent PredictHuman calls — every classifier in internal/models
	// is, once trained.
	Parallelism int
	// m holds the pipeline's observability instruments. All fields are
	// nil (no-op) until Instrument is called, so an uninstrumented
	// pipeline pays only dead nil-receiver calls on the hot path.
	m pipelineObs
	// reg remembers the Instrument call so the streaming scheduler can
	// register its end-to-end histogram in the same registry; nil on an
	// uninstrumented pipeline.
	reg *obs.Registry
}

// pipelineObs is the per-pipeline instrument set. Instruments are shared
// through the Registry, so several pipelines instrumented against the
// same registry (e.g. every pole in a campus) aggregate into one set of
// campus-wide series.
type pipelineObs struct {
	frames   *obs.Counter
	humans   *obs.Counter
	objects  *obs.Counter
	noise    *obs.Counter
	roi      *obs.Histogram
	ground   *obs.Histogram
	cluster  *obs.Histogram
	classify *obs.Histogram
	total    *obs.Histogram
}

// Instrument registers the pipeline's metrics in reg and starts recording
// per-frame stage spans and cluster label counts.
// It returns p for chaining; a nil registry hands out nil (no-op)
// instruments, leaving the pipeline uninstrumented.
func (p *Pipeline) Instrument(reg *obs.Registry) *Pipeline {
	p.reg = reg
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("hawc_frame_stage_seconds",
			"per-frame latency of one pipeline stage (roi, ground, cluster, classify)",
			obs.LatencyBuckets(), obs.L("stage", name))
	}
	p.m = pipelineObs{
		frames: reg.Counter("hawc_frames_total",
			"LiDAR frames counted end to end"),
		humans: reg.Counter("hawc_clusters_total",
			"clusters classified, by predicted label", obs.L("label", "human")),
		objects: reg.Counter("hawc_clusters_total",
			"clusters classified, by predicted label", obs.L("label", "object")),
		noise: reg.Counter("hawc_noise_points_total",
			"points discarded as clustering noise"),
		roi:      stage("roi"),
		ground:   stage("ground"),
		cluster:  stage("cluster"),
		classify: stage("classify"),
		total: reg.Histogram("hawc_frame_seconds",
			"end-to-end per-frame counting latency", obs.LatencyBuckets()),
	}
	return p
}

// DefaultBatchSize is how many clusters go into one forward pass when
// the Classifier implements models.BatchClassifier: one frame's clusters
// become ⌈N/16⌉ stacked [B, H, W, C] passes instead of N batch-1 passes.
// Large enough to amortize weight packing across the GEMM batch, small
// enough to bound the batch's scratch. Batched classification is
// bit-equal per cluster, so counts do not depend on it.
const DefaultBatchSize = 16

// New builds a pipeline with deployment defaults around the classifier.
func New(classifier models.Classifier) *Pipeline {
	return &Pipeline{
		ROI:         ground.DefaultROI(),
		Clusterer:   NewAdaptiveClusterer(),
		Classifier:  classifier,
		Parallelism: runtime.NumCPU(),
	}
}

// streamJob is the unit of work of both counting modes: one frame plus
// every buffer its processing needs. Jobs are pooled and their buffers
// (crop/segment scratch, materialized cluster clouds, kept-cluster
// headers) are recycled, so both the one-shot Count path and
// steady-state streaming stay allocation-flat outside the clustering
// kernels. A job is owned by exactly one goroutine at a time — under
// streaming, ownership transfers with the job from worker to reorderer.
type streamJob struct {
	// seq is the frame's position on the stream input (0 for one-shot).
	seq uint64
	// taken is when a streaming worker took the frame off the input: the
	// base of the end-to-end measurement under streaming.
	taken time.Time
	// frame is the caller's raw cloud (never mutated, never retained).
	frame geom.Cloud
	// cropped and ingested are the pooled ingest buffers.
	cropped, ingested geom.Cloud
	// clusters are the materialized cluster clouds (backing arrays
	// recycled via cluster.Result.ClustersInto); kept holds the headers
	// of those meeting dataset.MinVisiblePoints.
	clusters []geom.Cloud
	kept     []geom.Cloud
	// scratch carries the geometry stage's per-frame spatial index and
	// working buffers; recycled with the job so steady-state clustering
	// allocates nothing.
	scratch cluster.Scratch
	// batch is the frame's kept clusters quantized on the classification
	// lattice (rebuilt in place each frame); canonPts is the backing
	// buffer its dequantized clouds are sliced from. After stageKeep,
	// kept's headers point into canonPts.
	batch    wire.ClusterBatch
	canonPts geom.Cloud
	// res accumulates the frame's Result as stages run.
	res Result
}

// jobPool recycles streamJobs across frames, calls, and pipelines.
var jobPool = sync.Pool{New: func() any { return new(streamJob) }}

// acquireJob takes a recycled job. Its buffers keep their grown
// capacity; res and bookkeeping fields were zeroed at release.
func acquireJob() *streamJob { return jobPool.Get().(*streamJob) }

// releaseJob returns a job to the pool, dropping references to caller
// data but keeping the scratch buffers.
func releaseJob(j *streamJob) {
	j.seq = 0
	j.taken = time.Time{}
	j.frame = nil
	j.res = Result{}
	jobPool.Put(j)
}

// Count processes one raw LiDAR frame end to end on the calling
// goroutine; it starts no goroutine and does not read Parallelism. A
// pipeline without a classifier returns a zero Result rather than
// panicking, so a misconfigured pole node degrades to reporting an empty
// walkway instead of crashing its capture loop.
//
// Count is a one-shot synchronous call of countJob, the function every
// worker of the streaming scheduler (Stream) runs, so the
// frame-at-a-time and streaming paths cannot diverge: a frame produces
// bit-identical Count/Clusters/Noise either way.
func (p *Pipeline) Count(frame geom.Cloud) Result {
	j := acquireJob()
	j.frame = frame
	p.countJob(j)
	res := j.res
	releaseJob(j)
	return res
}

// countJob takes one job from ROI crop to count on the calling goroutine
// and records the frame into the pipeline's instruments. Without a
// classifier it leaves the job's zero Result.
func (p *Pipeline) countJob(j *streamJob) {
	if p.Classifier == nil {
		return
	}
	p.stageIngest(j)
	p.stageCluster(j)
	p.stageClassify(j)
	p.observeFrame(j.res)
}

// stageIngest crops the frame to the ROI and removes ground returns,
// writing into the job's pooled buffers and recording the two ingest
// segments of the frame span.
func (p *Pipeline) stageIngest(j *streamJob) {
	t0 := time.Now()
	j.cropped = p.ROI.CropInto(j.cropped[:0], j.frame)
	t1 := time.Now()
	j.ingested = ground.SegmentInto(j.ingested[:0], j.cropped, ground.DefaultZMin)
	t2 := time.Now()
	j.res.Timing.ROI = t1.Sub(t0)
	j.res.Timing.Ground = t2.Sub(t1)
}

// stageCluster partitions the ingested cloud against the job's recycled
// spatial index and buffers, and materializes the cluster clouds into the
// job's recycled buffers.
func (p *Pipeline) stageCluster(j *streamJob) {
	t0 := time.Now()
	cr := p.Clusterer.ClusterScratch(&j.scratch, j.ingested)
	j.clusters = cr.ClustersInto(j.ingested, j.clusters)
	j.res.Timing.Cluster = time.Since(t0)
	j.res.Noise = cr.NoiseCount()
}

// stageKeep drops clusters too small to be an annotatable pattern
// (below dataset.MinVisiblePoints), collects the rest in j.kept and
// canonicalizes the survivors onto the classification lattice: they are
// quantized into j.batch at wire.DefaultQuantScale and the kept headers
// are repointed at the dequantized clouds. The snap moves each coordinate
// by at most half a step (1 mm at the 2 mm scale, two orders of magnitude
// under LiDAR ranging noise). Nothing ships the batch anywhere — clusters
// are classified on the pole — but the snap stays because every golden
// count is pinned on lattice coordinates and the benchmark's wire.snap
// rows replay it and check the replay against Count (DESIGN.md, "The
// classification lattice").
func (p *Pipeline) stageKeep(j *streamJob) {
	kept := j.kept[:0]
	for _, c := range j.clusters {
		if len(c) >= dataset.MinVisiblePoints {
			kept = append(kept, c)
		}
	}
	j.kept = kept
	j.res.Clusters = len(kept)
	if len(kept) == 0 {
		return
	}
	j.batch.BuildInto(0, j.seq, kept, wire.DefaultQuantScale)
	// Pre-size the backing buffer so AppendCloud never reallocates it —
	// the kept headers sliced out of it below must stay valid.
	if total := j.batch.Points(); cap(j.canonPts) < total {
		j.canonPts = make(geom.Cloud, 0, total)
	} else {
		j.canonPts = j.canonPts[:0]
	}
	for i := range j.batch.Clusters {
		start := len(j.canonPts)
		j.canonPts = j.batch.AppendCloud(i, j.canonPts)
		kept[i] = j.canonPts[start:len(j.canonPts):len(j.canonPts)]
	}
}

// stageClassify filters out the small clusters (snapping the
// survivors onto the classification lattice, see stageKeep) and labels
// the rest one batch of DefaultBatchSize after another.
func (p *Pipeline) stageClassify(j *streamJob) {
	t0 := time.Now()
	p.stageKeep(j)
	kept := j.kept
	n := 0
	for start := 0; start < len(kept); start += DefaultBatchSize {
		n += p.classifyBatch(kept[start:min(start+DefaultBatchSize, len(kept))])
	}
	j.res.Count = n
	j.res.Timing.Classify = time.Since(t0)
}

// observeFrame records one completed frame into the pipeline's
// instruments (no-ops when uninstrumented). Both the one-shot and the
// streaming path report through here, so /metrics aggregates frames
// identically regardless of how they were counted.
func (p *Pipeline) observeFrame(res Result) {
	p.m.frames.Inc()
	p.m.noise.Add(uint64(res.Noise))
	p.m.roi.ObserveDuration(res.Timing.ROI)
	p.m.ground.ObserveDuration(res.Timing.Ground)
	p.m.cluster.ObserveDuration(res.Timing.Cluster)
	p.m.classify.ObserveDuration(res.Timing.Classify)
	p.m.total.ObserveDuration(res.Timing.Total())
}

// classifyBatch classifies one batch of clusters and returns the number
// of Human labels, in one forward pass when the classifier implements
// models.BatchClassifier.
func (p *Pipeline) classifyBatch(batch []geom.Cloud) int {
	n := 0
	if bc, ok := p.Classifier.(models.BatchClassifier); ok {
		for _, human := range bc.PredictHumans(batch) {
			if human {
				n++
			}
		}
	} else {
		for _, c := range batch {
			if p.Classifier.PredictHuman(c) {
				n++
			}
		}
	}
	p.m.humans.Add(uint64(n))
	p.m.objects.Add(uint64(len(batch) - n))
	return n
}

// Evaluation aggregates counting accuracy over a frame set.
type Evaluation struct {
	MAE, MSE  float64
	Predicted []float64
	Truth     []float64
	// MeanLatency and StdLatency summarize end-to-end per-frame time.
	MeanLatency, StdLatency time.Duration
}

// Accuracy returns the 1 − MAE/mean-truth counting accuracy.
func (e Evaluation) Accuracy() float64 {
	return metrics.CountingAccuracy(e.Predicted, e.Truth)
}

// Evaluate streams labeled frames through p.Stream, counting
// p.Parallelism of them at once, and scores the counts in input order.
// MeanLatency and StdLatency summarize each frame's compute time
// (Timing.Total), not its wait for a worker.
func Evaluate(p *Pipeline, frames []dataset.Frame) (Evaluation, error) {
	if len(frames) == 0 {
		return Evaluation{}, errors.New("counting: no frames")
	}
	ev := Evaluation{
		Predicted: make([]float64, len(frames)),
		Truth:     make([]float64, len(frames)),
	}
	lat := make([]float64, len(frames))
	in := make(chan geom.Cloud)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f.Cloud
		}
	}()
	for r := range p.Stream(context.Background(), in) {
		ev.Predicted[r.Seq] = float64(r.Count)
		ev.Truth[r.Seq] = float64(frames[r.Seq].Count)
		lat[r.Seq] = float64(r.Timing.Total())
	}
	ev.MAE = metrics.MAE(ev.Predicted, ev.Truth)
	ev.MSE = metrics.MSE(ev.Predicted, ev.Truth)
	mean, std := metrics.MeanStd(lat)
	ev.MeanLatency = time.Duration(mean)
	ev.StdLatency = time.Duration(std)
	return ev, nil
}
