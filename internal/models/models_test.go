package models

import (
	"math/rand"
	"sync"
	"testing"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/projection"
)

// smallSplit builds a small classification dataset shared by the tests.
// Training here uses few samples and epochs: the goal is exercising the
// code paths, not paper-grade accuracy (the experiments package does that).
func smallSplit(t *testing.T) dataset.Split {
	t.Helper()
	g := dataset.NewGenerator(11)
	samples := g.Classification(200)
	return dataset.TrainTestSplit(rand.New(rand.NewSource(5)), samples, 0.8)
}

func TestHAWCTrainPredict(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train, TrainConfig{Epochs: 10, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if h.Target() == 0 || h.Network() == nil {
		t.Fatal("training did not initialize the model")
	}
	conf := Evaluate(h, split.Test)
	// Loose bound: must clearly beat coin flipping on a small budget.
	if conf.Accuracy() < 0.6 {
		t.Errorf("HAWC tiny-train accuracy %.3f < 0.6", conf.Accuracy())
	}
	if h.Name() != "HAWC" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestHAWCProgressCallback(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	var epochs []int
	cfg := TrainConfig{Epochs: 3, Seed: 2, Progress: func(e int) { epochs = append(epochs, e) }}
	if err := h.Train(split.Train, cfg); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[2] != 2 {
		t.Errorf("progress calls: %v", epochs)
	}
}

func TestHAWCQuantizeAgreesWithFloat(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train, TrainConfig{Epochs: 10, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	hq, err := h.Quantize(split.Train[:20])
	if err != nil {
		t.Fatal(err)
	}
	if hq.Name() != "HAWC-int8" {
		t.Errorf("quantized name = %q", hq.Name())
	}
	if hq.QuantNetwork() == nil {
		t.Fatal("no quant network")
	}
	agree := 0
	for _, s := range split.Test {
		if h.PredictHuman(s.Cloud) == hq.PredictHuman(s.Cloud) {
			agree++
		}
	}
	if agree < len(split.Test)*6/10 {
		t.Errorf("int8 agrees on %d/%d", agree, len(split.Test))
	}
}

func TestHAWCGaussianVariant(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	h.GaussianSigma = 3
	if err := h.Train(split.Train, TrainConfig{Epochs: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// Must classify without pool access.
	_ = h.PredictHuman(split.Test[0].Cloud)
}

func TestHAWCProjectionVariants(t *testing.T) {
	split := smallSplit(t)
	for _, name := range []string{"BEV", "RV", "DA", "TV"} {
		proj, ok := projection.ByName(name)
		if !ok {
			t.Fatalf("projector %q missing", name)
		}
		h := NewHAWC()
		h.Projector = proj
		if err := h.Train(split.Train, TrainConfig{Epochs: 2, Seed: 2}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = h.PredictHuman(split.Test[0].Cloud)
	}
}

func TestHAWCErrors(t *testing.T) {
	h := NewHAWC()
	if err := h.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := h.Quantize(nil); err == nil {
		t.Error("quantize before training accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("predict before training should panic")
		}
	}()
	h.PredictHuman(nil)
}

func TestPointNetTrainPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("trains PointNet for three epochs")
	}
	split := smallSplit(t)
	p := NewPointNet()
	if err := p.Train(split.Train, TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if p.Target() == 0 || p.Network() == nil {
		t.Fatal("training did not initialize")
	}
	conf := Evaluate(p, split.Test)
	// PointNet converges slowly on the raw sensor-frame input; with a
	// 3-epoch budget just require it produces a working classifier.
	if conf.Accuracy() < 0.35 {
		t.Errorf("PointNet tiny-train accuracy %.3f", conf.Accuracy())
	}
	pq, err := p.Quantize(split.Train[:10])
	if err != nil {
		t.Fatal(err)
	}
	if pq.Name() != "PointNet-int8" || pq.QuantNetwork() == nil {
		t.Error("quantized PointNet malformed")
	}
	_ = pq.PredictHuman(split.Test[0].Cloud)
}

func TestPointNetErrors(t *testing.T) {
	p := NewPointNet()
	if err := p.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := p.Quantize(nil); err == nil {
		t.Error("quantize before training accepted")
	}
}

func TestAutoEncoderTrainPredict(t *testing.T) {
	split := smallSplit(t)
	a := NewAutoEncoder()
	if err := a.Train(split.Train, TrainConfig{Epochs: 20, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if a.threshold <= 0 {
		t.Error("threshold not fitted")
	}
	conf := Evaluate(a, split.Test)
	// Raw-feature AE is the paper's weak baseline; just require it runs
	// and recalls most humans (threshold covers 97% of training humans).
	if conf.Recall() < 0.5 {
		t.Errorf("AE recall %.3f suspiciously low", conf.Recall())
	}
	aq, err := a.Quantize(split.Train[:10])
	if err != nil {
		t.Fatal(err)
	}
	if aq.Name() != "AutoEncoder-int8" {
		t.Errorf("name %q", aq.Name())
	}
	_ = aq.PredictHuman(split.Test[0].Cloud)
}

func TestAutoEncoderErrors(t *testing.T) {
	a := NewAutoEncoder()
	if err := a.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	// Object-only training set has no human manifold to learn.
	g := dataset.NewGenerator(12)
	objs := g.Objects(5)
	if err := a.Train(objs, TrainConfig{Epochs: 1}); err == nil {
		t.Error("object-only training set accepted")
	}
}

func TestOCSVMWeakByDefault(t *testing.T) {
	// The paper-faithful OC-SVM-CC (features from up-sampled clusters) is
	// a near-chance classifier (Table I: 48.6%); at experiment scale it
	// hovers around 0.5. Here we only require the mechanics work and the
	// model stays clearly below the CNN tier.
	split := smallSplit(t)
	o := NewOCSVM()
	if err := o.Train(split.Train, TrainConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(o, split.Test)
	if conf.Accuracy() > 0.9 {
		t.Errorf("OC-SVM accuracy %.3f suspiciously high for the degenerate baseline", conf.Accuracy())
	}
	if o.NumSupportVectors() == 0 {
		t.Error("no support vectors")
	}
	if o.FeatureDim() == 0 {
		t.Error("feature dim")
	}
}

func TestOCSVMErrors(t *testing.T) {
	o := NewOCSVM()
	if err := o.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("predict before training should panic")
		}
	}()
	o.PredictHuman(nil)
}

func TestEvaluateHelper(t *testing.T) {
	split := smallSplit(t)
	o := NewOCSVM()
	if err := o.Train(split.Train, TrainConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(o, split.Test)
	if conf.Total() != len(split.Test) {
		t.Errorf("evaluated %d, want %d", conf.Total(), len(split.Test))
	}
}

// TestPredictHumanDeterministic verifies the concurrency contract's first
// half: a prediction depends only on the cluster content, not on call
// order, because padding noise is seeded from the cloud itself.
func TestPredictHumanDeterministic(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train[:60], TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	clouds := []int{0, 1, 2, 3}
	first := make([]bool, len(clouds))
	for i, ci := range clouds {
		first[i] = h.PredictHuman(split.Test[ci].Cloud)
	}
	// Reverse order and repeat: every answer must be unchanged.
	for pass := 0; pass < 2; pass++ {
		for i := len(clouds) - 1; i >= 0; i-- {
			if got := h.PredictHuman(split.Test[clouds[i]].Cloud); got != first[i] {
				t.Fatalf("cloud %d: prediction flipped across calls", clouds[i])
			}
		}
	}
}

// TestPredictHumanConcurrent drives one shared classifier from many
// goroutines; under -race this proves PredictHuman shares no mutable
// state across calls.
func TestPredictHumanConcurrent(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train[:60], TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	test := split.Test[:8]
	want := make([]bool, len(test))
	for i, s := range test {
		want[i] = h.PredictHuman(s.Cloud)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	mismatch := make(chan int, goroutines*len(test))
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < len(test); k++ {
				i := (k + g) % len(test) // different order per goroutine
				if h.PredictHuman(test[i].Cloud) != want[i] {
					mismatch <- i
					return
				}
			}
		}()
	}
	wg.Wait()
	close(mismatch)
	if i, ok := <-mismatch; ok {
		t.Fatalf("concurrent prediction for sample %d diverged from sequential", i)
	}
}

// TestPredictHumansMatchesSingle pins the BatchClassifier contract: a
// batched pass must reproduce per-cluster predictions exactly, for any
// batch composition, on both the float and int8 networks.
func TestPredictHumansMatchesSingle(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train[:60], TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	hq, err := h.Quantize(split.Train[:10])
	if err != nil {
		t.Fatal(err)
	}
	clouds := make([]geom.Cloud, 0, 12)
	for _, s := range split.Test[:12] {
		clouds = append(clouds, s.Cloud)
	}
	for _, m := range []*HAWC{h, hq} {
		want := make([]bool, len(clouds))
		for i, c := range clouds {
			want[i] = m.PredictHuman(c)
		}
		// Whole set at once, then an overlapping sub-batch: composition
		// must not matter.
		got := m.PredictHumans(clouds)
		if len(got) != len(want) {
			t.Fatalf("%s: got %d predictions, want %d", m.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s cluster %d: batched %v, single %v", m.Name(), i, got[i], want[i])
			}
		}
		sub := m.PredictHumans(clouds[3:7])
		for i, v := range sub {
			if v != want[3+i] {
				t.Errorf("%s cluster %d: sub-batched %v, single %v", m.Name(), 3+i, v, want[3+i])
			}
		}
	}
	if got := h.PredictHumans(nil); got != nil {
		t.Errorf("empty batch: got %v, want nil", got)
	}
}

// TestPredictHumansSteadyStateAllocs is the classify stage's allocation
// gate: once the pools are warm, a batch allocates nothing per cluster —
// padding, framing, projection and the input tensor all reuse pooled
// storage, each image built in its slot of the batch, and the inference
// pass keeps every intermediate tensor, header and shape in its arena —
// so a batch of 5 or 16 allocates what a batch of 1 does: the input's
// header, the pass's detached result, and the labels. CI's alloc-gate
// runs it.
func TestPredictHumansSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train[:60], TrainConfig{Epochs: 1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		clouds := make([]geom.Cloud, 0, n)
		for _, s := range split.Test[:n] {
			clouds = append(clouds, s.Cloud)
		}
		h.PredictHumans(clouds) // grow the pooled buffers to this batch
		return testing.AllocsPerRun(20, func() { h.PredictHumans(clouds) })
	}
	one := allocs(1)
	for _, n := range []int{5, 16} {
		if got := allocs(n); got != one {
			t.Errorf("a batch of %d allocates %.1f times, a batch of 1 %.1f: want nothing per cluster", n, got, one)
		}
	}
	if one > 7 {
		t.Errorf("a batch allocates %.1f times, want at most 7", one)
	}
}
