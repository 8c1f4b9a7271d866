package counting

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hawccc/internal/cluster"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/metrics"
	"hawccc/internal/models"
	"hawccc/internal/obs"
)

// heightStub classifies clusters by vertical extent: a cheap, training-free
// stand-in for HAWC that is right often enough to exercise the pipeline.
type heightStub struct{}

var _ models.Classifier = heightStub{}

func (heightStub) Name() string { return "HeightStub" }

func (heightStub) PredictHuman(cloud geom.Cloud) bool {
	extent := cloud.Bounds().Size().Z
	return extent > 1.1 && extent < 2.3
}

func TestPipelineCountsSimpleFrames(t *testing.T) {
	g := dataset.NewGenerator(1)
	frames := g.CrowdFrames(6, 1, 3, 1)
	p := New(heightStub{})
	for i, f := range frames {
		r := p.Count(f.Cloud)
		if r.Clusters == 0 {
			t.Errorf("frame %d: no clusters found", i)
		}
		// The stub is imperfect; counts must at least be in a sane band.
		if r.Count < 0 || r.Count > f.Count+3 {
			t.Errorf("frame %d: count %d vs truth %d", i, r.Count, f.Count)
		}
		if r.Timing.Total() <= 0 {
			t.Errorf("frame %d: no timing recorded", i)
		}
	}
}

func TestPipelineNamesAndVariants(t *testing.T) {
	p := New(heightStub{})
	if p.Clusterer.Name() != "adaptive" {
		t.Errorf("default clusterer = %q", p.Clusterer.Name())
	}
	fixed := FixedEpsClusterer{Eps: 0.5}
	if fixed.Name() != "fixed-eps(0.5)" {
		t.Errorf("fixed name = %q", fixed.Name())
	}
	h := HierarchicalClusterer{}
	if h.Name() != "hierarchical" {
		t.Errorf("hier name = %q", h.Name())
	}
}

func TestClustererVariantsRun(t *testing.T) {
	g := dataset.NewGenerator(2)
	frames := g.CrowdFrames(2, 2, 2, 1)
	clusterers := []ScratchClusterer{
		NewAdaptiveClusterer(),
		FixedEpsClusterer{Eps: 0.3},
		dbscanAt{eps: 0.3, minPts: 4},
		HierarchicalClusterer{},
		hierarchicalAt(0.3),
	}
	for _, c := range clusterers {
		p := New(heightStub{})
		p.Clusterer = c
		for _, f := range frames {
			r := p.Count(f.Cloud)
			if r.Count < 0 {
				t.Errorf("%s: negative count", c.Name())
			}
		}
	}
}

func TestHierarchicalOvercounts(t *testing.T) {
	// The Table IV pathology: sub-body-scale single-linkage splits people
	// into many clusters, drastically over-counting relative to adaptive.
	g := dataset.NewGenerator(3)
	frames := g.CrowdFrames(4, 3, 3, 0)

	adaptive := New(acceptAll{})
	hier := New(acceptAll{})
	hier.Clusterer = hierarchicalAt(0.08)

	var adaptiveTotal, hierTotal int
	for _, f := range frames {
		adaptiveTotal += adaptive.Count(f.Cloud).Count
		hierTotal += hier.Count(f.Cloud).Count
	}
	if hierTotal <= adaptiveTotal {
		t.Errorf("hierarchical (%d) should over-count vs adaptive (%d)", hierTotal, adaptiveTotal)
	}
}

// hierarchicalAt is single linkage cut at a distance other than the
// deployment's.
type hierarchicalAt float64

func (h hierarchicalAt) Name() string { return fmt.Sprintf("hierarchical(%.2f)", float64(h)) }

func (h hierarchicalAt) ClusterScratch(_ *cluster.Scratch, cloud geom.Cloud) cluster.Result {
	return cluster.Hierarchical(cloud, float64(h))
}

// dbscanAt is fixed-ε DBSCAN at a minPts other than the deployment's.
type dbscanAt struct {
	eps    float64
	minPts int
}

func (d dbscanAt) Name() string { return fmt.Sprintf("dbscan(%.1f, %d)", d.eps, d.minPts) }

func (d dbscanAt) ClusterScratch(s *cluster.Scratch, cloud geom.Cloud) cluster.Result {
	return s.DBSCAN(cloud, d.eps, d.minPts)
}

// acceptAll classifies everything as human, isolating clustering behavior.
type acceptAll struct{}

var _ models.Classifier = acceptAll{}

func (acceptAll) Name() string                 { return "AcceptAll" }
func (acceptAll) PredictHuman(geom.Cloud) bool { return true }

func TestEvaluate(t *testing.T) {
	g := dataset.NewGenerator(4)
	frames := g.CrowdFrames(5, 1, 3, 1)
	p := New(heightStub{})
	ev, err := Evaluate(p, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Predicted) != 5 || len(ev.Truth) != 5 {
		t.Fatalf("evaluation sizes wrong: %d/%d", len(ev.Predicted), len(ev.Truth))
	}
	if ev.MSE < ev.MAE-1e-9 {
		t.Errorf("MSE %v < MAE %v", ev.MSE, ev.MAE)
	}
	if ev.MeanLatency <= 0 {
		t.Error("no latency recorded")
	}
	if _, err := Evaluate(p, nil); err == nil {
		t.Error("empty frame set accepted")
	}
}

func TestCountWithoutClassifierDegrades(t *testing.T) {
	// A misconfigured pole node must degrade to an empty result, not crash
	// its capture loop.
	p := &Pipeline{Clusterer: NewAdaptiveClusterer()}
	r := p.Count(geom.Cloud{geom.P(20, 0, -1)})
	if r.Count != 0 || r.Clusters != 0 || r.Noise != 0 {
		t.Errorf("nil classifier should yield a zero Result, got %+v", r)
	}
	if _, err := Evaluate(p, dataset.NewGenerator(9).CrowdFrames(1, 1, 1, 0)); err != nil {
		t.Errorf("Evaluate with nil classifier should degrade, got %v", err)
	}
}

func TestSmallClustersAreFiltered(t *testing.T) {
	// A cluster below dataset.MinVisiblePoints is not an annotatable
	// pattern and must be skipped. Adaptive DBSCAN's MinPts equals that
	// floor, so a looser fixed-ε clusterer produces the small cluster.
	blob := func(y float64, n int) geom.Cloud {
		var c geom.Cloud
		for i := 0; i < n; i++ {
			c = append(c, geom.P(20+0.02*float64(i), y, -1))
		}
		return c
	}
	p := New(acceptAll{})
	p.Clusterer = dbscanAt{eps: 0.3, minPts: 3}
	for _, tc := range []struct{ small, want int }{
		{dataset.MinVisiblePoints - 1, 1},
		{dataset.MinVisiblePoints, 2},
	} {
		cloud := append(blob(-1, tc.small), blob(1, 2*dataset.MinVisiblePoints)...)
		r := p.Count(cloud)
		if r.Clusters != tc.want || r.Count != tc.want || r.Noise != 0 {
			t.Errorf("%d-point cluster beside a large one: %+v, want %d kept and no noise", tc.small, r, tc.want)
		}
	}
}

// TestCountDeterministicAcrossWorkerCounts pins that a frame counts the
// same however the pooled jobs were used before it: the frames are
// counted forward, then backward, so every second pass runs on buffers
// another frame shape grew. Count has one width; stream widths are
// TestStreamMatchesGoldenInOrder's and TestEvaluateStreamsInOrder's.
func TestCountDeterministicAcrossWorkerCounts(t *testing.T) {
	g := dataset.NewGenerator(7)
	frames := g.CrowdFrames(4, 2, 5, 2)
	p := New(heightStub{})
	want := make([]Result, len(frames))
	for i, f := range frames {
		want[i] = p.Count(f.Cloud)
	}
	for i := len(frames) - 1; i >= 0; i-- {
		got := p.Count(frames[i].Cloud)
		if got.Count != want[i].Count || got.Clusters != want[i].Clusters || got.Noise != want[i].Noise {
			t.Errorf("frame %d recounted: %+v, first pass %+v", i, got, want[i])
		}
	}
}

func TestNewPipelineDefaultsToAllCores(t *testing.T) {
	p := New(heightStub{})
	if p.Parallelism != runtime.NumCPU() {
		t.Errorf("New Parallelism = %d, want NumCPU = %d", p.Parallelism, runtime.NumCPU())
	}
	// The zero-value field stays a valid sequential configuration.
	var zero Pipeline
	if zero.Parallelism != 0 {
		t.Error("zero pipeline must default to sequential")
	}
}

// stageHistograms returns the four per-stage span histograms of p keyed
// by stage name; values are nil on an uninstrumented pipeline.
func stageHistograms(p *Pipeline) map[string]*obs.Histogram {
	return map[string]*obs.Histogram{
		"roi":      p.m.roi,
		"ground":   p.m.ground,
		"cluster":  p.m.cluster,
		"classify": p.m.classify,
	}
}

// batchStub wraps heightStub with batch support, recording every batch
// it receives so tests can assert batching actually happens.
type batchStub struct {
	heightStub
	mu      sync.Mutex
	batches []int
}

var _ models.BatchClassifier = (*batchStub)(nil)

func (b *batchStub) PredictHumans(clouds []geom.Cloud) []bool {
	b.mu.Lock()
	b.batches = append(b.batches, len(clouds))
	b.mu.Unlock()
	out := make([]bool, len(clouds))
	for i, c := range clouds {
		out[i] = b.PredictHuman(c)
	}
	return out
}

// TestBatchedCountMatchesSequential pins the batched path against the
// per-cluster path on sparse frames (one batch) and crowd frames
// (several).
func TestBatchedCountMatchesSequential(t *testing.T) {
	g := dataset.NewGenerator(10)
	frames := append(g.CrowdFrames(2, 2, 6, 2), g.CrowdFrames(2, 20, 24, 3)...)
	plain := New(heightStub{})
	split := false
	for i, f := range frames {
		want := plain.Count(f.Cloud)
		stub := &batchStub{}
		got := New(stub).Count(f.Cloud)
		if got.Count != want.Count || got.Clusters != want.Clusters {
			t.Errorf("frame %d: %+v, per-cluster %+v", i, got, want)
		}
		total := 0
		for _, n := range stub.batches {
			if n > DefaultBatchSize {
				t.Errorf("frame %d: batch of %d exceeds DefaultBatchSize", i, n)
			}
			total += n
		}
		if total != got.Clusters {
			t.Errorf("frame %d: batches covered %d clusters, want %d", i, total, got.Clusters)
		}
		split = split || len(stub.batches) > 1
	}
	if !split {
		t.Error("no frame split into several batches; the crowd frames must exceed DefaultBatchSize clusters")
	}
}

func TestInstrumentedPipelineRecordsSpans(t *testing.T) {
	g := dataset.NewGenerator(11)
	frames := g.CrowdFrames(5, 1, 4, 1)

	plain := New(heightStub{})
	reg := obs.NewRegistry()
	p := New(heightStub{}).Instrument(reg)

	totalClusters := 0
	for i, f := range frames {
		want := plain.Count(f.Cloud)
		got := p.Count(f.Cloud)
		if got.Count != want.Count || got.Clusters != want.Clusters {
			t.Errorf("frame %d: instrumented %+v differs from plain %+v", i, got, want)
		}
		totalClusters += got.Clusters
	}

	if got := reg.Counter("hawc_frames_total", "").Value(); got != uint64(len(frames)) {
		t.Errorf("frames counter = %d, want %d", got, len(frames))
	}
	humans := reg.Counter("hawc_clusters_total", "", obs.L("label", "human")).Value()
	objects := reg.Counter("hawc_clusters_total", "", obs.L("label", "object")).Value()
	if humans+objects != uint64(totalClusters) {
		t.Errorf("human %d + object %d clusters != evaluated %d", humans, objects, totalClusters)
	}
	for stage, h := range stageHistograms(p) {
		if h == nil {
			t.Fatalf("stage %q histogram missing", stage)
		}
		if s := h.Snapshot(); s.Count != uint64(len(frames)) {
			t.Errorf("stage %q observed %d frames, want %d", stage, s.Count, len(frames))
		}
	}
	if s := p.m.total.Snapshot(); s.Count != uint64(len(frames)) || s.Sum <= 0 {
		t.Errorf("total histogram count=%d sum=%g", s.Count, s.Sum)
	}
}

func TestUninstrumentedPipelineHasNilStageHistograms(t *testing.T) {
	p := New(heightStub{})
	if p.m != (pipelineObs{}) {
		t.Errorf("uninstrumented pipeline holds instruments: %+v", p.m)
	}
	// Instrument with a nil registry stays uninstrumented and still counts.
	p.Instrument(nil)
	g := dataset.NewGenerator(12)
	f := g.CrowdFrames(1, 1, 2, 0)[0]
	if r := p.Count(f.Cloud); r.Clusters == 0 {
		t.Error("nil-registry pipeline stopped counting")
	}
}

// peakStub is a batch classifier that sleeps in every PredictHumans call
// and records the most calls it ever saw running at once.
type peakStub struct {
	heightStub
	running, peak atomic.Int32
}

var _ models.BatchClassifier = (*peakStub)(nil)

func (s *peakStub) PredictHumans(clouds []geom.Cloud) []bool {
	n := s.running.Add(1)
	defer s.running.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	out := make([]bool, len(clouds))
	for i, c := range clouds {
		out[i] = s.PredictHuman(c)
	}
	return out
}

// TestCountClassifiesOnOneGoroutine pins that Count classifies a frame's
// batches one after another whatever Parallelism says: a frame of several
// batches never has two forward passes running at once.
func TestCountClassifiesOnOneGoroutine(t *testing.T) {
	f := dataset.NewGenerator(13).CrowdFrames(1, 20, 24, 3)[0]
	stub := &peakStub{}
	p := New(stub)
	p.Parallelism = 4
	r := p.Count(f.Cloud)
	if r.Clusters <= DefaultBatchSize {
		t.Fatalf("frame produced %d clusters; need > %d for several batches", r.Clusters, DefaultBatchSize)
	}
	if peak := stub.peak.Load(); peak != 1 {
		t.Errorf("Count ran %d forward passes at once, want 1", peak)
	}
}

// TestEvaluateStreamsInOrder pins Evaluate, which counts through Stream,
// against a Count loop at several widths. Crowded and sparse frames
// alternate, so at widths above 1 a sparse frame finishes before the
// crowded one taken ahead of it and the scores must still line up.
func TestEvaluateStreamsInOrder(t *testing.T) {
	g := dataset.NewGenerator(14)
	crowded, sparse := g.CrowdFrames(4, 20, 24, 3), g.CrowdFrames(4, 2, 6, 2)
	var frames []dataset.Frame
	for i := range crowded {
		frames = append(frames, crowded[i], sparse[i])
	}
	p := New(heightStub{})
	pred := make([]float64, len(frames))
	truth := make([]float64, len(frames))
	for i, f := range frames {
		pred[i] = float64(p.Count(f.Cloud).Count)
		truth[i] = float64(f.Count)
	}
	for _, workers := range []int{1, 2, 8} {
		p.Parallelism = workers
		ev, err := Evaluate(p, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ev.Predicted, pred) || !slices.Equal(ev.Truth, truth) {
			t.Errorf("workers=%d: predicted %v truth %v, Count loop %v %v",
				workers, ev.Predicted, ev.Truth, pred, truth)
		}
		if ev.MAE != metrics.MAE(pred, truth) || ev.MSE != metrics.MSE(pred, truth) {
			t.Errorf("workers=%d: MAE %v MSE %v, Count loop %v %v",
				workers, ev.MAE, ev.MSE, metrics.MAE(pred, truth), metrics.MSE(pred, truth))
		}
	}
}
