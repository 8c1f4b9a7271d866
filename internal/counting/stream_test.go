package counting

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/models"
	"hawccc/internal/obs"
)

// goldenFrames pins the deterministic outputs of the counting path for
// seed-20 traffic. These values were produced by the pre-scheduler
// sequential implementation; Count and the stream at every width must
// keep reproducing them bit-for-bit.
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
func streamFrames(ctx context.Context, p *Pipeline, frames []dataset.Frame) []StreamResult {
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
	for r := range p.Stream(ctx, in) {
		out = append(out, r)
	}
	return out
}

// TestStreamMatchesGoldenInOrder streams the golden frames at several
// worker counts. Counts above the core count matter: frames then finish
// out of order, so the reorder buffer is exercised (and raced, under
// -race) even on a 2-core runner.
func TestStreamMatchesGoldenInOrder(t *testing.T) {
	frames := goldenInput()
	for _, workers := range []int{1, 2, 8} {
		p := New(heightStub{})
		p.Parallelism = workers
		results := streamFrames(context.Background(), p, frames)
		if len(results) != len(frames) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(frames))
		}
		for i, r := range results {
			if r.Seq != uint64(i) {
				t.Errorf("workers=%d: result %d has seq %d — out of order", workers, i, r.Seq)
			}
			g := goldenFrames[i]
			if r.Count != g.count || r.Clusters != g.clusters || r.Noise != g.noise {
				t.Errorf("workers=%d frame %d: streamed {%d %d %d}, golden {%d %d %d}",
					workers, i, r.Count, r.Clusters, r.Noise, g.count, g.clusters, g.noise)
			}
			if r.E2E <= 0 {
				t.Errorf("workers=%d frame %d: no end-to-end latency", workers, i)
			}
			if r.Timing.Total() <= 0 {
				t.Errorf("workers=%d frame %d: no stage timing", workers, i)
			}
			if r.E2E < r.Timing.Total() {
				t.Errorf("workers=%d frame %d: E2E %v below compute time %v",
					workers, i, r.E2E, r.Timing.Total())
			}
		}
	}
}

// streamBound is the most frames a one-worker stream holds: one in the
// worker, one finished and waiting for the reorderer, one in the
// reorderer's hand waiting for the consumer. With one worker no frame can
// overtake another, so the count is exact.
const streamBound = 3

// TestStreamInFlightBound pins that the default stream holds no standing
// queue: with nobody reading results it accepts streamBound frames and
// then blocks its input.
func TestStreamInFlightBound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(heightStub{})
	p.Parallelism = 1
	in := make(chan geom.Cloud)
	out := p.Stream(ctx, in)

	cloud := goldenInput()[0].Cloud
	accepted := 0
	for blocked := false; !blocked && accepted <= streamBound; {
		select {
		case in <- cloud:
			accepted++
		case <-time.After(500 * time.Millisecond):
			blocked = true
		}
	}
	if accepted > streamBound {
		t.Errorf("scheduler accepted %d frames with no consumer, want at most %d", accepted, streamBound)
	}
	cancel()
	for range out {
	}
}

// slowStub is heightStub behind a fixed delay per classify batch — per
// frame, for frames of at most DefaultBatchSize clusters.
type slowStub struct {
	heightStub
	delay time.Duration
}

var _ models.BatchClassifier = slowStub{}

func (s slowStub) PredictHumans(clouds []geom.Cloud) []bool {
	time.Sleep(s.delay)
	out := make([]bool, len(clouds))
	for i, c := range clouds {
		out[i] = s.PredictHuman(c)
	}
	return out
}

// TestStreamSaturatedInFlightBound is the same bound under load: a source
// that always has a frame ready, a worker that is never idle and a
// consumer reading as fast as it can. Frames sent minus results received
// never exceeds streamBound — saturation ages no frame in a queue. The
// sent counter trails the true number sent, which only loosens the check.
func TestStreamSaturatedInFlightBound(t *testing.T) {
	const frames = 64
	p := New(slowStub{delay: 2 * time.Millisecond})
	p.Parallelism = 1
	cloud := goldenInput()[0].Cloud
	in := make(chan geom.Cloud)
	var sent atomic.Int64
	go func() {
		defer close(in)
		for i := 0; i < frames; i++ {
			in <- cloud
			sent.Add(1)
		}
	}()
	received, worst := int64(0), int64(0)
	for range p.Stream(context.Background(), in) {
		received++
		worst = max(worst, sent.Load()-received)
	}
	if received != frames {
		t.Fatalf("drained %d results, want %d", received, frames)
	}
	if worst > streamBound {
		t.Errorf("saturated stream held %d frames at once, want at most %d", worst, streamBound)
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
	results := streamFrames(context.Background(), p, frames)
	if len(results) != len(frames) {
		t.Fatalf("got %d results, want %d", len(results), len(frames))
	}
	for i, r := range results {
		if r.Seq != uint64(i) || r.Count != 0 || r.Clusters != 0 {
			t.Errorf("result %d = %+v, want zero Result in order", i, r)
		}
	}
}

func TestStreamRecordsFrameMetrics(t *testing.T) {
	frames := goldenInput()
	reg := obs.NewRegistry()
	p := New(heightStub{}).Instrument(reg)
	if n := len(streamFrames(context.Background(), p, frames)); n != len(frames) {
		t.Fatalf("drained %d results, want %d", n, len(frames))
	}

	if s := reg.Histogram("hawc_stream_e2e_seconds", "", obs.LatencyBuckets()).Snapshot(); s.Count != uint64(len(frames)) {
		t.Errorf("e2e histogram observed %d frames, want %d", s.Count, len(frames))
	}
	// Frames counted through the stream land in the same frame counter as
	// the one-shot path.
	if got := reg.Counter("hawc_frames_total", "").Value(); got != uint64(len(frames)) {
		t.Errorf("frames counter = %d, want %d", got, len(frames))
	}
}

// TestStreamSteadyStateAllocs is the allocation gate: once job and
// buffer pools are warm, a frame through the pooled path — job
// lifecycle, ingest buffers, the full adaptive geometry stage (the
// frame's neighbour graph, the k-distance band, structure-gap coarse
// pass, final labels, via the job's cluster.Scratch), cluster materialization,
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
