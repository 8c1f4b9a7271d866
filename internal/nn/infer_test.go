package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hawccc/internal/nn/kernels"
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

// inferTestPointNet covers Group and MaxOverPoints.
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

// TestInferSteadyStateAllocs is the inference pass's allocation gate:
// once the scratch pool is warm and the weight panels are packed, a
// Sequential.Infer over HAWC's layer shapes allocates only the result it
// detaches from the arena (its header, shape and storage). The arena
// holds every intermediate tensor's storage, header and shape, Flatten's
// view included. CI's alloc-gate runs it.
func TestInferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	rng := rand.New(rand.NewSource(3))
	m := hawcShapeNet(rng)
	for _, batch := range []int{1, 5, 16} {
		x := randTensor(rng, batch, 15, 15, 7)
		m.Infer(x) // pack the weight panels, grow the arena to this batch
		if got := testing.AllocsPerRun(20, func() { m.Infer(x) }); got > 3 {
			t.Errorf("batch %d: Infer allocates %.1f times, want at most 3 (the detached result)", batch, got)
		}
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

// TestInferMatchesNaiveOnEachTile pins Infer — the Conv2D→BatchNorm→ReLU
// GEMM epilogue, the branch-free max-pool, the bias-seeded tiles — to
// inferNaive on the AVX tile and on the pure-Go one, the only tile an
// arm64 pole runs, on the test CNN and on a HAWC-shaped network at
// batch 1, 5 and 16.
func TestInferMatchesNaiveOnEachTile(t *testing.T) {
	for _, avx := range []bool{true, false} {
		prev := kernels.SetAVX(avx)
		rng := rand.New(rand.NewSource(22))
		small := inferTestCNN(rng)
		xs := randTensor(rng, 6, 4, 4, 2)
		settle(small, xs, []int{0, 1, 2, 0, 1, 2})
		hawc := hawcShapeNet(rng)
		cases := []struct {
			m *Sequential
			x *tensor.Tensor
		}{{small, xs}}
		for _, n := range []int{1, 5, 16} {
			x := randTensor(rng, n, 15, 15, 7)
			sparsify(rng, x, 0.3)
			cases = append(cases, struct {
				m *Sequential
				x *tensor.Tensor
			}{hawc, x})
		}
		for ci, c := range cases {
			got, want := c.m.Infer(c.x), inferNaive(c.m, c.x)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("avx=%v case %d: Infer[%d] = %v, inferNaive = %v", avx, ci, i, got.Data[i], want.Data[i])
				}
			}
		}
		kernels.SetAVX(prev)
	}
}

// TestFusedConvEdgeValues drives conv outputs of NaN, ±0, ±Inf and
// subnormals into the fused Conv2D→BatchNorm→ReLU and into the max-pool:
// a 1×1 convolution from one channel with weights ±1 and a −0 bias
// passes each input through, negated on odd channels (−0 stays −0), so
// the epilogue and the pool see exactly those values. (One input channel
// keeps two NaNs from meeting in an add, where the hardware's choice of
// payload follows operand order, not arithmetic; the kernels' contract
// allows that case any NaN, and kernels.TestGemmNaNsMeetInOneAdd pins
// it.) On both tiles Infer
// must equal inferNaive and the training pass's layer-by-layer
// arithmetic (ReLU's and MaxPool2D's Forward, whose selects branch on
// v > 0 and v > bv) bit for bit.
func TestFusedConvEdgeValues(t *testing.T) {
	edge := []float32{float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5, -0.5}
	const c = 16
	rng := rand.New(rand.NewSource(23))
	identity := func() *Conv2D {
		conv := NewConv2D(1, 1, 1, c, rng)
		for i := 0; i < c; i++ {
			conv.W.Value.Data[i] = float32(1 - 2*(i%2))
			conv.B.Value.Data[i] = float32(math.Copysign(0, -1))
		}
		return conv
	}
	bn := NewBatchNorm(c)
	for i := 0; i < c; i++ {
		if i%2 == 1 { // identity on even channels; shift, scale and flip on odd
			bn.RunningMean.Data[i], bn.RunningVar.Data[i] = 0.25, 4
			bn.Gamma.Value.Data[i], bn.Beta.Value.Data[i] = -1.5, 1e-38
		}
	}
	fused := (&Sequential{}).Add(identity(), bn, NewReLU(), NewMaxPool2D())
	pooled := (&Sequential{}).Add(identity(), NewMaxPool2D())

	x := tensor.New(3, 4, 6, 1)
	for i := range x.Data {
		x.Data[i] = edge[rng.Intn(len(edge))]
	}
	copy(x.Data[len(x.Data)-len(edge):], edge) // every value at least once
	forward := func(m *Sequential) *tensor.Tensor {
		y := tensor.New(3, 4, 6, c)
		m.Layers[0].(*Conv2D).applyNaive(x, y)
		for _, l := range m.Layers[1:] {
			switch l := l.(type) {
			case *BatchNorm:
				y = l.Infer(y, newScratch())
			default:
				y = l.Forward(y)
			}
		}
		return y
	}
	for _, avx := range []bool{true, false} {
		prev := kernels.SetAVX(avx)
		for mi, m := range []*Sequential{fused, pooled} {
			got, naive, want := m.Infer(x), inferNaive(m, x), forward(m)
			for i := range want.Data {
				g, n, w := math.Float32bits(got.Data[i]), math.Float32bits(naive.Data[i]), math.Float32bits(want.Data[i])
				if g != w || n != w {
					t.Fatalf("avx=%v model %d [%d]: Infer %#x, inferNaive %#x, layer by layer %#x", avx, mi, i, g, n, w)
				}
			}
		}
		kernels.SetAVX(prev)
	}
}
