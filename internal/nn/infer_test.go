package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hawccc/internal/tensor"
)

// inferTestCNN builds a HAWC-shaped model covering every inference-capable
// layer kind except the PointNet-specific ones.
func inferTestCNN(rng *rand.Rand) *Sequential {
	return (&Sequential{}).Add(
		NewConv2D(3, 3, 2, 4, rng),
		NewBatchNorm(4),
		NewReLU(),
		NewMaxPool2D(),
		NewFlatten(),
		NewDense(2*2*4, 8, rng),
		NewReLU(),
		NewDropout(0.5, rng),
		NewDense(8, 3, rng),
	)
}

// inferTestPointNet covers Group/Ungroup/MaxOverPoints.
func inferTestPointNet(rng *rand.Rand) *Sequential {
	return (&Sequential{}).Add(
		NewDense(3, 8, rng),
		NewBatchNorm(8),
		NewReLU(),
		NewGroup(4),
		NewMaxOverPoints(),
		NewDense(8, 2, rng),
	)
}

// settle runs a few training steps so batch-norm running statistics are
// non-trivial before checking Infer.
func settle(m *Sequential, x *tensor.Tensor, labels []int) {
	opt := NewAdam(0.01)
	for i := 0; i < 3; i++ {
		out := m.Forward(x)
		_, grad := SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
		opt.Step(m.Params())
	}
}

// trainMatchesInfer turns off what the training pass does differently:
// dropout's draws, and BatchNorm's running average — at momentum 0 a
// training pass leaves the running statistics equal to its batch's.
func trainMatchesInfer(m *Sequential) {
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *BatchNorm:
			l.Momentum = 0
		case *Dropout:
			l.P = 0
		}
	}
}

// TestInferMatchesForward pins the inference pass to the training pass
// where the two compute the same function: once trainMatchesInfer holds,
// Forward over a batch and Infer over the same batch must agree bit for
// bit — the fused BatchNorm+ReLU, the packed GEMM panels and the scratch
// arena against the layer-by-layer training arithmetic.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := inferTestCNN(rng)
	x := tensor.New(2, 4, 4, 2)
	x.RandNormal(rng, 1)
	settle(m, x, []int{0, 2})
	trainMatchesInfer(m)

	want := m.Forward(x)
	for trial := 0; trial < 3; trial++ { // repeat: scratch reuse must not corrupt
		got := m.Infer(x)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("Infer shape %v vs Forward %v", got.Shape, want.Shape)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: Infer[%d] = %v, Forward = %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestInferMatchesForwardPointNetLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := inferTestPointNet(rng)
	x := tensor.New(8, 3) // 2 clouds × 4 points
	x.RandNormal(rng, 1)
	settle(m, x, []int{1, 0})
	trainMatchesInfer(m)

	want := m.Forward(x)
	got := m.Infer(x)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Infer[%d] = %v, Forward = %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferConcurrent hammers one shared model from many goroutines; run
// under -race this proves the inference path writes no shared state.
func TestInferConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := inferTestCNN(rng)
	base := tensor.New(1, 4, 4, 2)
	base.RandNormal(rng, 1)
	settle(m, base.Reshape(1, 4, 4, 2), []int{1})
	want := inferNaive(m, base)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := m.Infer(base)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						errs <- "concurrent Infer diverged from inferNaive"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestInferDoesNotDisturbTraining interleaves Infer with a training step
// and checks the backward pass still sees the activations it cached.
func TestInferDoesNotDisturbTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := inferTestCNN(rng)
	x := tensor.New(2, 4, 4, 2)
	x.RandNormal(rng, 1)
	labels := []int{0, 1}

	out := m.Forward(x)
	_ = m.Infer(x) // must not clobber cached activations
	_, grad := SoftmaxCrossEntropy(out, labels)
	m.Backward(grad) // panics or races if Infer wrote layer state
}

// TestInferAfterStepMatchesFreshModel pins that the weight panels Dense
// and Conv2D keep for inference never go stale: Infer at batch 1 (the
// Dense direct loop) and batch 5 (packed), then an Adam step, then Infer
// again, each time equal to a freshly built model holding copies of the
// current weights.
func TestInferAfterStepMatchesFreshModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := inferTestCNN(rng)
	x1 := tensor.New(1, 4, 4, 2)
	x1.RandNormal(rng, 1)
	x5 := tensor.New(5, 4, 4, 2)
	x5.RandNormal(rng, 1)
	labels := []int{0, 2, 1, 1, 0}
	opt := NewAdam(0.01)
	for step := 0; step < 3; step++ {
		got1, got5 := m.Infer(x1), m.Infer(x5)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fresh := inferTestCNN(rand.New(rand.NewSource(int64(step))))
		if err := fresh.Load(&buf); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ got, want *tensor.Tensor }{
			{got1, fresh.Infer(x1)}, {got5, fresh.Infer(x5)},
		} {
			for i := range c.want.Data {
				if c.got.Data[i] != c.want.Data[i] {
					t.Fatalf("after %d steps, batch %d: Infer[%d] = %v, fresh model %v",
						step, c.got.Dim(0), i, c.got.Data[i], c.want.Data[i])
				}
			}
		}
		out := m.Forward(x5)
		_, grad := SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
		opt.Step(m.Params())
	}
}

func TestScratchReusesBuffers(t *testing.T) {
	var s Scratch
	a := s.uninit(2, 3)
	s.reset()
	b := s.uninit(3, 2)
	if &a.Data[0] != &b.Data[0] {
		t.Error("scratch did not reuse its buffer after reset")
	}
	c := s.uninit(10) // larger than slot capacity: must grow
	if len(c.Data) != 10 {
		t.Fatalf("grown buffer len %d", len(c.Data))
	}
}

// TestRectifyMatchesReLU pins rectify, the branch-free element rule of
// ReLU.Infer and the fused BatchNorm+ReLU pass, to Forward's v > 0
// test bit for bit on the values where a bit trick could slip: both
// zeros, both infinities, NaNs of either sign, subnormals, and the
// largest finite values.
func TestRectifyMatchesReLU(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), -float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32}
	for _, v := range vals {
		var want float32
		if v > 0 {
			want = v
		}
		if got := rectify(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("rectify(%v) = %v (%#x), want %v (%#x)", v, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}
