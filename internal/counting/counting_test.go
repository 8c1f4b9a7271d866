package counting

import (
	"runtime"
	"sync"
	"testing"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/models"
	"hawccc/internal/obs"
)

// heightStub classifies clusters by vertical extent: a cheap, training-free
// stand-in for HAWC that is right often enough to exercise the pipeline.
type heightStub struct{}

var _ models.Classifier = heightStub{}

func (heightStub) Name() string { return "HeightStub" }

func (heightStub) PredictHuman(cloud geom.Cloud) bool {
	extent := cloud.MaxZ() - cloud.MinZ()
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
	if p.Name() != "HeightStub-CC" {
		t.Errorf("Name = %q", p.Name())
	}
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
	clusterers := []Clusterer{
		NewAdaptiveClusterer(),
		FixedEpsClusterer{Eps: 0.3},
		FixedEpsClusterer{Eps: 0.3, MinPts: 4},
		HierarchicalClusterer{},
		HierarchicalClusterer{CutDistance: 0.3},
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
	hier.Clusterer = HierarchicalClusterer{CutDistance: 0.08}

	var adaptiveTotal, hierTotal int
	for _, f := range frames {
		adaptiveTotal += adaptive.Count(f.Cloud).Count
		hierTotal += hier.Count(f.Cloud).Count
	}
	if hierTotal <= adaptiveTotal {
		t.Errorf("hierarchical (%d) should over-count vs adaptive (%d)", hierTotal, adaptiveTotal)
	}
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
	p.Clusterer = FixedEpsClusterer{Eps: 0.3, MinPts: 3}
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

func TestCountDeterministicAcrossWorkerCounts(t *testing.T) {
	g := dataset.NewGenerator(7)
	frames := g.CrowdFrames(4, 2, 5, 2)
	p := New(heightStub{})
	for i, f := range frames {
		p.Parallelism = 1
		want := p.Count(f.Cloud)
		for _, workers := range []int{2, 8, 0} { // 0 = sequential, like 1
			p.Parallelism = workers
			got := p.Count(f.Cloud)
			if got.Count != want.Count || got.Clusters != want.Clusters || got.Noise != want.Noise {
				t.Errorf("frame %d at %d workers: %+v, sequential %+v", i, workers, got, want)
			}
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
// per-cluster path at several worker counts, on sparse frames (one
// batch) and crowd frames (several); run under -race this also proves
// batch handout shares no unsynchronized state.
func TestBatchedCountMatchesSequential(t *testing.T) {
	g := dataset.NewGenerator(10)
	frames := append(g.CrowdFrames(2, 2, 6, 2), g.CrowdFrames(2, 20, 24, 3)...)
	plain := New(heightStub{})
	plain.Parallelism = 1
	split := false
	for i, f := range frames {
		want := plain.Count(f.Cloud)
		for _, workers := range []int{1, 2, 8} {
			stub := &batchStub{}
			p := New(stub)
			p.Parallelism = workers
			got := p.Count(f.Cloud)
			if got.Count != want.Count || got.Clusters != want.Clusters {
				t.Errorf("frame %d workers=%d: %+v, per-cluster %+v", i, workers, got, want)
			}
			total := 0
			for _, n := range stub.batches {
				if n > DefaultBatchSize {
					t.Errorf("frame %d workers=%d: batch of %d exceeds DefaultBatchSize", i, workers, n)
				}
				total += n
			}
			if total != got.Clusters {
				t.Errorf("frame %d workers=%d: batches covered %d clusters, want %d", i, workers, total, got.Clusters)
			}
			split = split || len(stub.batches) > 1
		}
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
		if got.Timing.ROI+got.Timing.Ground != got.Timing.Ingest {
			t.Errorf("frame %d: ROI %v + Ground %v != Ingest %v",
				i, got.Timing.ROI, got.Timing.Ground, got.Timing.Ingest)
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

func TestQueueWaitRecordedOnParallelClassify(t *testing.T) {
	g := dataset.NewGenerator(13)
	// A crowd frame with more clusters than one batch holds, so the
	// parallel path hands out several.
	f := g.CrowdFrames(1, 20, 24, 3)[0]
	reg := obs.NewRegistry()
	p := New(heightStub{}).Instrument(reg)
	p.Parallelism = 4
	r := p.Count(f.Cloud)
	batches := (r.Clusters + DefaultBatchSize - 1) / DefaultBatchSize
	if batches < 2 {
		t.Fatalf("frame produced %d clusters; need > %d for several batches", r.Clusters, DefaultBatchSize)
	}
	qw := p.m.queueWait.Snapshot()
	if qw.Count != uint64(batches) {
		t.Errorf("queue-wait observations = %d, want one per batch = %d", qw.Count, batches)
	}
	if r.Timing.QueueWait <= 0 {
		t.Error("frame span missing queue wait")
	}
	if r.Timing.QueueWait > r.Timing.Classify {
		t.Errorf("queue wait %v exceeds classify stage %v", r.Timing.QueueWait, r.Timing.Classify)
	}
	// Sequential classification — Parallelism 1 and the zero value alike —
	// records no queue wait.
	for _, workers := range []int{1, 0} {
		p.Parallelism = workers
		seq := p.Count(f.Cloud)
		if seq.Timing.QueueWait != 0 {
			t.Errorf("Parallelism=%d recorded queue wait %v", workers, seq.Timing.QueueWait)
		}
		if got := p.m.queueWait.Snapshot().Count; got != qw.Count {
			t.Errorf("Parallelism=%d added %d queue-wait observations", workers, got-qw.Count)
		}
	}
}
