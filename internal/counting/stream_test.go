package counting

import (
	"context"
	"testing"
	"time"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/obs"
)

// goldenFrames pins the deterministic outputs of the counting path for
// seed-20 traffic. These values were produced by the pre-scheduler
// sequential implementation; every execution mode (sequential, parallel
// classify, streaming) must keep reproducing them bit-for-bit.
var goldenFrames = []struct{ count, clusters, noise int }{
	{2, 4, 0}, {2, 6, 10}, {1, 6, 6}, {2, 5, 0},
	{4, 6, 3}, {3, 3, 7}, {5, 7, 1}, {1, 4, 5},
}

func goldenInput() []dataset.Frame {
	return dataset.NewGenerator(20).CrowdFrames(len(goldenFrames), 1, 6, 2)
}

func TestCountMatchesGolden(t *testing.T) {
	frames := goldenInput()
	p := New(heightStub{})
	for workers := 1; workers <= 4; workers *= 2 {
		p.Parallelism = workers
		for i, f := range frames {
			r := p.Count(f.Cloud)
			g := goldenFrames[i]
			if r.Count != g.count || r.Clusters != g.clusters || r.Noise != g.noise {
				t.Errorf("workers=%d frame %d: got {%d %d %d}, golden {%d %d %d}",
					workers, i, r.Count, r.Clusters, r.Noise, g.count, g.clusters, g.noise)
			}
		}
	}
}

// streamFrames pushes the labeled frames through the scheduler and
// collects the results.
func streamFrames(ctx context.Context, p *Pipeline, frames []dataset.Frame, cfg StreamConfig) []StreamResult {
	in := make(chan geom.Cloud)
	go func() {
		defer close(in)
		for _, f := range frames {
			select {
			case in <- f.Cloud:
			case <-ctx.Done():
				return
			}
		}
	}()
	var out []StreamResult
	for r := range p.StreamWith(ctx, in, cfg) {
		out = append(out, r)
	}
	return out
}

func TestStreamMatchesGoldenInOrder(t *testing.T) {
	frames := goldenInput()
	configs := []StreamConfig{
		{},
		{IngestWorkers: 1, ClusterWorkers: 1, ClassifyWorkers: 1, QueueDepth: 1},
		{IngestWorkers: 2, ClusterWorkers: 4, ClassifyWorkers: 4, QueueDepth: 2},
	}
	for ci, cfg := range configs {
		p := New(heightStub{})
		results := streamFrames(context.Background(), p, frames, cfg)
		if len(results) != len(frames) {
			t.Fatalf("config %d: got %d results, want %d", ci, len(results), len(frames))
		}
		for i, r := range results {
			if r.Seq != uint64(i) {
				t.Errorf("config %d: result %d has seq %d — out of order", ci, i, r.Seq)
			}
			g := goldenFrames[i]
			if r.Count != g.count || r.Clusters != g.clusters || r.Noise != g.noise {
				t.Errorf("config %d frame %d: streamed {%d %d %d}, golden {%d %d %d}",
					ci, i, r.Count, r.Clusters, r.Noise, g.count, g.clusters, g.noise)
			}
			if r.E2E <= 0 {
				t.Errorf("config %d frame %d: no end-to-end latency", ci, i)
			}
			if r.Timing.Total() <= 0 {
				t.Errorf("config %d frame %d: no stage timing", ci, i)
			}
			if r.E2E < r.Timing.Total() {
				t.Errorf("config %d frame %d: E2E %v below compute time %v",
					ci, i, r.E2E, r.Timing.Total())
			}
		}
	}
}

func TestStreamCancelClosesOutput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan geom.Cloud) // never closed: only cancelation can end the stream
	p := New(heightStub{})
	out := p.Stream(ctx, in)

	f := goldenInput()[0]
	in <- f.Cloud
	if r, ok := <-out; !ok || r.Clusters == 0 {
		t.Fatalf("pre-cancel result = %+v ok=%v", r, ok)
	}
	cancel()
	select {
	case _, ok := <-out:
		if ok {
			// A frame already in flight may still emit; the channel must
			// still close right after.
			if _, ok := <-out; ok {
				t.Error("output channel kept emitting after cancel")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("output channel not closed after cancel")
	}
}

func TestStreamWithoutClassifierDegrades(t *testing.T) {
	frames := goldenInput()[:3]
	p := &Pipeline{}
	results := streamFrames(context.Background(), p, frames, StreamConfig{})
	if len(results) != len(frames) {
		t.Fatalf("got %d results, want %d", len(results), len(frames))
	}
	for i, r := range results {
		if r.Seq != uint64(i) || r.Count != 0 || r.Clusters != 0 {
			t.Errorf("result %d = %+v, want zero Result in order", i, r)
		}
	}
}

func TestStreamRecordsQueueMetrics(t *testing.T) {
	frames := goldenInput()
	reg := obs.NewRegistry()
	p := New(heightStub{}).Instrument(reg)

	ctx := context.Background()
	cfg := StreamConfig{IngestWorkers: 1, ClusterWorkers: 1, ClassifyWorkers: 1, QueueDepth: 1}
	in := make(chan geom.Cloud)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f.Cloud
		}
	}()
	out := p.StreamWith(ctx, in, cfg)
	// A slow consumer fills every queue behind the report stage, forcing
	// observable backpressure.
	first := true
	n := 0
	for range out {
		if first {
			time.Sleep(100 * time.Millisecond)
			first = false
		}
		n++
	}
	if n != len(frames) {
		t.Fatalf("drained %d results, want %d", n, len(frames))
	}

	if s := reg.Histogram("hawc_stream_e2e_seconds", "", obs.LatencyBuckets()).Snapshot(); s.Count != uint64(len(frames)) {
		t.Errorf("e2e histogram observed %d frames, want %d", s.Count, len(frames))
	}
	bp := uint64(0)
	for _, stage := range []string{"ingest", "cluster", "classify", "report"} {
		bp += reg.Counter("hawc_stream_backpressure_total", "", obs.L("stage", stage)).Value()
		if d := reg.Gauge("hawc_stream_queue_depth", "", obs.L("stage", stage)).Value(); d != 0 {
			t.Errorf("stage %q queue depth = %g after drain, want 0", stage, d)
		}
	}
	if bp == 0 {
		t.Error("no backpressure recorded despite a stalled consumer and depth-1 queues")
	}
	// Frames counted through the stream land in the same frame counter as
	// the one-shot path.
	if got := reg.Counter("hawc_frames_total", "").Value(); got != uint64(len(frames)) {
		t.Errorf("frames counter = %d, want %d", got, len(frames))
	}
}

// TestStreamSteadyStateAllocs is the allocation gate: once job and
// buffer pools are warm, a frame through the pooled path — job
// lifecycle, ingest buffers, the full adaptive geometry stage (voxel
// grid build, kNN elbow curve, structure-gap coarse pass, DBSCAN
// expansion, via the job's cluster.Scratch), cluster materialization,
// kept filtering, sequential classification, instrument no-ops —
// performs zero heap allocations.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	frames := goldenInput()
	p := New(heightStub{})
	p.Parallelism = 1

	// Warm the job pool and the scratch buffers across every frame shape
	// the window replays, then demand allocation-free steady state.
	want := make([]int, len(frames))
	for i := range frames {
		want[i] = p.Count(frames[i].Cloud).Count
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := range frames {
			if r := p.Count(frames[i].Cloud); r.Count != want[i] {
				t.Errorf("frame %d count drifted: %d vs %d", i, r.Count, want[i])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("pooled counting path allocates %.1f times per window, want 0", allocs)
	}
}

// TestTimingTotalMatchesObservedSpans pins the satellite invariant that
// Result.Timing and the observability layer tell the same story: for a
// single counted frame, Timing.Total() equals the sum of the per-stage
// histogram observations (roi + ground + cluster + classify), and the
// total histogram records exactly that value.
func TestTimingTotalMatchesObservedSpans(t *testing.T) {
	f := goldenInput()[0]
	reg := obs.NewRegistry()
	p := New(heightStub{}).Instrument(reg)
	r := p.Count(f.Cloud)

	stageSum := 0.0
	for stage, h := range stageHistograms(p) {
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("stage %q observed %d spans, want 1", stage, s.Count)
		}
		stageSum += s.Sum
	}
	total := r.Timing.Total().Seconds()
	const eps = 1e-9 // float accumulation slack; spans are ≥ microseconds
	if diff := stageSum - total; diff > eps || diff < -eps {
		t.Errorf("observed stage spans sum to %.9fs, Timing.Total() = %.9fs", stageSum, total)
	}
	if s := p.m.total.Snapshot(); s.Count != 1 || s.Sum-total > eps || total-s.Sum > eps {
		t.Errorf("total histogram sum %.9fs (count %d), want %.9fs", s.Sum, s.Count, total)
	}
}

func TestStreamConfigDefaults(t *testing.T) {
	got := StreamConfig{}.withDefaults()
	if got != DefaultStreamConfig() {
		t.Errorf("zero config resolved to %+v, want %+v", got, DefaultStreamConfig())
	}
	partial := StreamConfig{ClassifyWorkers: 7}.withDefaults()
	if partial.ClassifyWorkers != 7 {
		t.Errorf("explicit worker count overridden: %+v", partial)
	}
	if partial.QueueDepth != DefaultQueueDepth || partial.IngestWorkers != 1 {
		t.Errorf("unset fields not defaulted: %+v", partial)
	}
}
