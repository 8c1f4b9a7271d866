package hawccc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// trainSmall builds a small counter shared across tests.
func trainSmall(t *testing.T) (*Counter, []Sample) {
	t.Helper()
	train := GenerateTrainingData(1, 120)
	opts := DefaultTrainOptions()
	opts.Epochs = 6
	c, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, train
}

func TestTrainAndCount(t *testing.T) {
	c, _ := trainSmall(t)
	frames := GenerateFrames(2, 4, 1, 3)
	for i, f := range frames {
		r := c.Count(f.Cloud)
		if r.Count < 0 || r.Count > f.Count+4 {
			t.Errorf("frame %d: count %d vs truth %d", i, r.Count, f.Count)
		}
		if r.Latency.Total() <= 0 {
			t.Error("no latency recorded")
		}
	}
}

func TestTrainProgressAndDefaults(t *testing.T) {
	train := GenerateTrainingData(2, 60)
	calls := 0
	_, err := Train(train, TrainOptions{Epochs: 2, Progress: func(int) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("progress called %d times", calls)
	}
	if _, err := Train(nil, DefaultTrainOptions()); err == nil {
		t.Error("empty training data accepted")
	}
}

func TestQuantizeAndEvaluate(t *testing.T) {
	c, train := trainSmall(t)
	q, err := c.Quantize(train[:30])
	if err != nil {
		t.Fatal(err)
	}
	frames := GenerateFrames(3, 4, 1, 3)
	ev, err := c.Evaluate(frames)
	if err != nil {
		t.Fatal(err)
	}
	evQ, err := q.Evaluate(frames)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MSE < ev.MAE-1e-9 || evQ.MSE < evQ.MAE-1e-9 {
		t.Error("MSE must be at least MAE")
	}
	if _, err := c.Evaluate(nil); err == nil {
		t.Error("empty frames accepted")
	}
}

func TestClassifyClusterAndMetrics(t *testing.T) {
	c, train := trainSmall(t)
	// Classifier metrics on the training data must beat chance clearly.
	acc, p, r, f1 := c.EvaluateClassifier(train)
	if acc < 0.6 {
		t.Errorf("train accuracy %.3f", acc)
	}
	if p < 0 || p > 1 || r < 0 || r > 1 || f1 < 0 || f1 > 1 {
		t.Error("metrics out of range")
	}
	_ = c.ClassifyCluster(train[0].Cloud)
}

func TestROIAndHelpers(t *testing.T) {
	xMin, xMax, yMin, yMax := ROI()
	if xMin != 12 || xMax != 35 || yMin != -2.5 || yMax != 2.5 {
		t.Errorf("ROI = %v %v %v %v", xMin, xMax, yMin, yMax)
	}
	if p := P(1, 2, 3); p.X != 1 || p.Y != 2 || p.Z != 3 {
		t.Error("P constructor")
	}
	if got := CountingAccuracy([]float64{244.1, 255.9}, []float64{250, 250}); got < 0.97 || got > 0.98 {
		t.Errorf("CountingAccuracy = %v", got)
	}
}

// streamAll pushes frames through c.Stream and collects the results.
func streamAll(c *Counter, frames []Frame) []StreamResult {
	in := make(chan Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	var out []StreamResult
	for r := range c.Stream(context.Background(), in) {
		out = append(out, r)
	}
	return out
}

// TestCountDeterministicAcrossWorkers is the public determinism contract:
// same frame → same count whether clusters are classified inline or on 2
// or 8 workers, Evaluate reproduces the sequential MAE/MSE exactly at
// every width, and Stream delivers the same counts in input order.
func TestCountDeterministicAcrossWorkers(t *testing.T) {
	c, _ := trainSmall(t)
	frames := GenerateFrames(5, 4, 1, 4)
	c.pipeline.Parallelism = 1
	want := make([]Result, len(frames))
	for i, f := range frames {
		want[i] = c.Count(f.Cloud)
	}
	seq, err := c.Evaluate(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		c.pipeline.Parallelism = workers
		for i, f := range frames {
			got := c.Count(f.Cloud)
			if got.Count != want[i].Count || got.Clusters != want[i].Clusters {
				t.Errorf("frame %d at %d workers: count %d/%d clusters, sequential %d/%d",
					i, workers, got.Count, got.Clusters, want[i].Count, want[i].Clusters)
			}
		}
		par, err := c.Evaluate(frames)
		if err != nil {
			t.Fatal(err)
		}
		if par.MAE != seq.MAE || par.MSE != seq.MSE || par.Accuracy != seq.Accuracy {
			t.Errorf("%d workers: MAE/MSE/Acc %v/%v/%v, sequential %v/%v/%v",
				workers, par.MAE, par.MSE, par.Accuracy, seq.MAE, seq.MSE, seq.Accuracy)
		}
	}
	streamed := streamAll(c, frames)
	if len(streamed) != len(frames) {
		t.Fatalf("stream delivered %d results, want %d", len(streamed), len(frames))
	}
	for i, r := range streamed {
		if r.Seq != uint64(i) || r.Count != want[i].Count || r.Clusters != want[i].Clusters {
			t.Errorf("streamed result %d: seq %d count %d/%d clusters, sequential %d/%d",
				i, r.Seq, r.Count, r.Clusters, want[i].Count, want[i].Clusters)
		}
	}
}

// TestConcurrentSharedCounter drives one shared Counter from 8 goroutines
// mixing Count, Stream, and Evaluate; run under -race this is the
// load-bearing proof that the whole inference stack shares no mutable
// state.
func TestConcurrentSharedCounter(t *testing.T) {
	c, _ := trainSmall(t)
	c.pipeline.Parallelism = 2 // two stream workers on any host
	frames := GenerateFrames(6, 4, 1, 3)
	want := make([]int, len(frames))
	for i, f := range frames {
		want[i] = c.Count(f.Cloud).Count
	}
	wantEval, err := c.Evaluate(frames)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 3 {
			case 0:
				for k := range frames {
					i := (k + g) % len(frames)
					if got := c.Count(frames[i].Cloud); got.Count != want[i] {
						errs <- fmt.Errorf("goroutine %d frame %d: count %d, want %d", g, i, got.Count, want[i])
						return
					}
				}
			case 1:
				for _, r := range streamAll(c, frames) {
					if r.Count != want[r.Seq] {
						errs <- fmt.Errorf("goroutine %d streamed frame %d: count %d, want %d", g, r.Seq, r.Count, want[r.Seq])
						return
					}
				}
			default:
				if ev, err := c.Evaluate(frames); err != nil || ev != wantEval {
					errs <- fmt.Errorf("goroutine %d: Evaluate = %+v, %v; want %+v", g, ev, err, wantEval)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		t.Fatal(err)
	}
}

func TestStreamMatchesCount(t *testing.T) {
	c, _ := trainSmall(t)
	frames := GenerateFrames(5, 6, 1, 4)

	results := streamAll(c, frames)
	if len(results) != len(frames) {
		t.Fatalf("stream delivered %d results, want %d", len(results), len(frames))
	}
	for i, r := range results {
		if r.Seq != uint64(i) {
			t.Errorf("result %d arrived with seq %d — out of order", i, r.Seq)
		}
		want := c.Count(frames[i].Cloud)
		if r.Count != want.Count || r.Clusters != want.Clusters {
			t.Errorf("frame %d: streamed count=%d clusters=%d, Count gave %d/%d",
				i, r.Count, r.Clusters, want.Count, want.Clusters)
		}
		if r.E2E <= 0 || r.Latency.Total() <= 0 {
			t.Errorf("frame %d: missing latency (E2E=%v total=%v)", i, r.E2E, r.Latency.Total())
		}
	}
}

func TestStreamCancel(t *testing.T) {
	c, _ := trainSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Frame) // never closed; cancelation must end the stream
	out := c.Stream(ctx, in)
	in <- GenerateFrames(6, 1, 2, 3)[0]
	if _, ok := <-out; !ok {
		t.Fatal("no result before cancel")
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return // closed, as documented
			}
		case <-deadline:
			t.Fatal("stream did not close after cancel")
		}
	}
}
