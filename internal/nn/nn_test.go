package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hawccc/internal/tensor"
)

// numericalGradCheck verifies the analytic parameter and input gradients of
// a model against central finite differences on a scalar loss.
func numericalGradCheck(t *testing.T, model *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()

	// Analytic gradients.
	out := model.Forward(x)
	_, grad := SoftmaxCrossEntropy(out, labels)
	model.Backward(grad)

	lossAt := func() float64 {
		o := model.Forward(x)
		l, _ := SoftmaxCrossEntropy(o, labels)
		return l
	}

	const eps = 1e-2
	const relTol = 0.12 // float32 arithmetic; loose but catches sign/structure bugs
	checked, mismatched := 0, 0
	var firstMismatch string
	for _, p := range model.Params() {
		// Check a subset of entries to keep the test fast.
		stride := 1
		if p.Value.NumElems() > 50 {
			stride = p.Value.NumElems() / 25
		}
		for i := 0; i < p.Value.NumElems(); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(math.Abs(numeric), math.Abs(analytic))
			if scale <= 5e-3 {
				continue
			}
			checked++
			if diff/scale > relTol {
				mismatched++
				if firstMismatch == "" {
					firstMismatch = fmt.Sprintf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
				}
			}
		}
	}
	// ReLU and max layers have kinks where central differences straddle an
	// argmax switch; a few isolated mismatches are expected there. A real
	// gradient bug mismatches nearly everywhere.
	if checked > 0 && float64(mismatched)/float64(checked) > 0.25 {
		t.Errorf("%d/%d gradient entries mismatch; first: %s", mismatched, checked, firstMismatch)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := (&Sequential{}).Add(NewDense(4, 3, rng))
	x := tensor.New(2, 4)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 2})
}

func TestDenseReLUDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := (&Sequential{}).Add(
		NewDense(5, 8, rng),
		NewReLU(),
		NewDense(8, 2, rng),
	)
	x := tensor.New(3, 5)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 1, 0})
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := (&Sequential{}).Add(
		NewConv2D(3, 3, 2, 4, rng),
		NewReLU(),
		NewFlatten(),
		NewDense(4*4*4, 2, rng),
	)
	x := tensor.New(2, 4, 4, 2)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{1, 0})
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := (&Sequential{}).Add(
		NewDense(4, 6, rng),
		NewBatchNorm(6),
		NewReLU(),
		NewDense(6, 2, rng),
	)
	x := tensor.New(4, 4)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 1, 1, 0})
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := (&Sequential{}).Add(
		NewConv2D(3, 3, 1, 3, rng),
		NewMaxPool2D(),
		NewFlatten(),
		NewDense(2*2*3, 2, rng),
	)
	x := tensor.New(2, 4, 4, 1)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 1})
}

func TestMaxOverPointsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	model := (&Sequential{}).Add(
		NewReshape(6, 3),      // [N, 18] -> [N, 6, 3]
		NewReshape(18),        // back to flat
		NewDense(18, 12, rng), // per-batch dense
		NewReshape(6, 2),      // [N, 6, 2] points×features
		NewMaxOverPoints(),    // [N, 2]
	)
	x := tensor.New(3, 18)
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 1, 1})
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{10, 0, 0, 10}, 2, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss > 0.01 {
		t.Errorf("confident correct predictions: loss %v", loss)
	}
	loss2, _ := SoftmaxCrossEntropy(logits, []int{1, 0})
	if loss2 < 5 {
		t.Errorf("confident wrong predictions: loss %v, want ≈10", loss2)
	}
	// Gradient rows sum to ~0 (softmax minus one-hot, scaled by 1/N).
	for i := 0; i < 2; i++ {
		sum := grad.Data[i*2] + grad.Data[i*2+1]
		if math.Abs(float64(sum)) > 1e-6 {
			t.Errorf("grad row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyPanics(t *testing.T) {
	logits := tensor.New(2, 2)
	for _, labels := range [][]int{{0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %v should panic", labels)
				}
			}()
			SoftmaxCrossEntropy(logits, labels)
		}()
	}
}

// TestSoftmaxRowsSumToOne reads the softmax back out of the loss
// gradient, ∂L/∂logits = (softmax − one-hot)/N, on random logits: every
// probability lies in [0, 1] and every row sums to one.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logits := tensor.New(5, 3)
	logits.RandNormal(rng, 3)
	labels := []int{0, 1, 2, 1, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for i := 0; i < 5; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := 5 * float64(grad.Data[i*3+j])
			if j == labels[i] {
				v++
			}
			if v < -1e-6 || v > 1+1e-6 {
				t.Fatalf("probability %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 1, 2)
	target := tensor.FromSlice([]float32{0, 0}, 1, 2)
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-2.5) > 1e-6 { // (1+4)/2
		t.Errorf("loss = %v, want 2.5", loss)
	}
	if math.Abs(float64(grad.Data[0])-1) > 1e-6 || math.Abs(float64(grad.Data[1])-2) > 1e-6 {
		t.Errorf("grad = %v", grad.Data)
	}
}

func TestArgmax(t *testing.T) {
	tt := tensor.FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := Argmax(tt)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("Argmax = %v", got)
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDropout(0.5, rng)
	x := tensor.New(1, 1000)
	x.Fill(1)
	// Training: roughly half zeroed, survivors scaled 2×.
	out := d.Forward(x)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d/1000, want ≈500", zeros)
	}
	if zeros+twos != 1000 {
		t.Error("dropout outputs must be 0 or scaled")
	}
	// Inference: identity (same tensor).
	if got := d.Infer(x, nil); got != x {
		t.Error("inference dropout should be identity")
	}
	// Backward masks gradient identically.
	g := tensor.New(1, 1000)
	g.Fill(1)
	d.Forward(x)
	dg := d.Backward(g)
	for i, v := range dg.Data {
		if v != 0 && v != 2 {
			t.Fatalf("grad %d = %v", i, v)
		}
	}
}

func TestDropoutPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm(3)
	x := tensor.New(64, 3)
	for i := 0; i < 64; i++ {
		x.Data[i*3+0] = float32(rng.NormFloat64()*2 + 5)
		x.Data[i*3+1] = float32(rng.NormFloat64() * 0.1)
		x.Data[i*3+2] = float32(rng.NormFloat64() - 3)
	}
	// Train several steps so running stats converge toward batch stats.
	for i := 0; i < 60; i++ {
		bn.Forward(x)
	}
	out := bn.Forward(x)
	// Batch output: each channel ≈ zero mean, unit variance (γ=1, β=0).
	for c := 0; c < 3; c++ {
		var mean float64
		for i := 0; i < 64; i++ {
			mean += float64(out.Data[i*3+c])
		}
		mean /= 64
		if math.Abs(mean) > 1e-3 {
			t.Errorf("train channel %d mean %v", c, mean)
		}
	}
	// Eval uses running stats — close to the converged batch stats.
	evalOut := bn.Infer(x, new(Scratch))
	for c := 0; c < 3; c++ {
		var mean float64
		for i := 0; i < 64; i++ {
			mean += float64(evalOut.Data[i*3+c])
		}
		mean /= 64
		if math.Abs(mean) > 0.2 {
			t.Errorf("eval channel %d mean %v, want ≈0", c, mean)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	// 1 image 4x4x1 with known values.
	x := tensor.New(1, 4, 4, 1)
	for i := 0; i < 16; i++ {
		x.Data[i] = float32(i)
	}
	mp := NewMaxPool2D()
	out := mp.Forward(x)
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	// Odd dimension floors.
	x5 := tensor.New(1, 5, 5, 1)
	out5 := mp.Forward(x5)
	if out5.Dim(1) != 2 || out5.Dim(2) != 2 {
		t.Errorf("5x5 pooled to %v", out5.Shape)
	}
}

func TestTrainLinearlySeparable(t *testing.T) {
	// A 2-layer net must learn a linearly separable problem to ~100%.
	rng := rand.New(rand.NewSource(10))
	model := (&Sequential{}).Add(
		NewDense(2, 8, rng),
		NewReLU(),
		NewDense(8, 2, rng),
	)
	opt := NewAdam(0.01)
	n := 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x.Data[i*2] = float32(rng.NormFloat64())
		x.Data[i*2+1] = float32(rng.NormFloat64())
		if x.Data[i*2]+x.Data[i*2+1] > 0 {
			labels[i] = 1
		}
	}
	var loss float64
	for epoch := 0; epoch < 200; epoch++ {
		out := model.Forward(x)
		var grad *tensor.Tensor
		loss, grad = SoftmaxCrossEntropy(out, labels)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if loss > 0.1 {
		t.Errorf("final loss %v, want < 0.1", loss)
	}
	pred := Argmax(model.Infer(x))
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	if correct < 62 {
		t.Errorf("train accuracy %d/64", correct)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	build := func(r *rand.Rand) *Sequential {
		return (&Sequential{}).Add(
			NewConv2D(3, 3, 2, 4, r),
			NewBatchNorm(4),
			NewReLU(),
			NewFlatten(),
			NewDense(4*4*4, 2, r),
		)
	}
	m1 := build(rng)
	// Perturb running stats so they round trip too.
	m1.Layers[1].(*BatchNorm).RunningMean.Fill(0.5)

	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := build(rand.New(rand.NewSource(999))) // different init
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 4, 4, 2)
	x.RandNormal(rng, 1)
	o1 := m1.Infer(x)
	o2 := m2.Infer(x)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatalf("outputs differ after load at %d", i)
		}
	}
}

func TestLoadRejectsMismatchedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m1 := (&Sequential{}).Add(NewDense(4, 2, rng))
	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := (&Sequential{}).Add(NewDense(4, 3, rng))
	if err := m2.Load(&buf); err == nil {
		t.Error("load into mismatched architecture should fail")
	}
	m3 := (&Sequential{}).Add(NewDense(4, 2, rng), NewDense(2, 2, rng))
	buf.Reset()
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m3.Load(&buf); err == nil {
		t.Error("load with wrong tensor count should fail")
	}
	if err := m1.Load(bytes.NewReader([]byte("JUNK"))); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestReshape(t *testing.T) {
	x := tensor.New(2, 12)
	r := NewReshape(3, 4)
	out := r.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 3 || out.Dim(2) != 4 {
		t.Errorf("shape %v", out.Shape)
	}
	back := r.Backward(tensor.New(2, 3, 4))
	if back.Dim(1) != 12 {
		t.Errorf("backward shape %v", back.Shape)
	}
	f := NewFlatten()
	out2 := f.Forward(tensor.New(2, 3, 4, 5))
	if out2.Dim(1) != 60 {
		t.Errorf("flatten shape %v", out2.Shape)
	}
}

func TestGroupUngroup(t *testing.T) {
	x := tensor.New(6, 4) // 2 clouds × 3 points
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	g := NewGroup(3)
	out := g.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 3 || out.Dim(2) != 4 {
		t.Fatalf("Group shape %v", out.Shape)
	}
	back := g.Backward(tensor.New(2, 3, 4))
	if back.Dim(0) != 6 || back.Dim(1) != 4 {
		t.Errorf("Group backward shape %v", back.Shape)
	}

	// Data preserved through the reshape.
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("data scrambled")
		}
	}
}

func TestGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Group(0) should panic")
		}
	}()
	NewGroup(0)
}

func TestGroupIndivisibleBatchPanics(t *testing.T) {
	g := NewGroup(4)
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible batch should panic")
		}
	}()
	g.Forward(tensor.New(6, 2))
}

func TestPointNetStyleGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := (&Sequential{}).Add(
		NewDense(3, 6, rng),
		NewReLU(),
		NewGroup(4),
		NewMaxOverPoints(),
		NewDense(6, 2, rng),
	)
	x := tensor.New(8, 3) // 2 clouds × 4 points
	x.RandNormal(rng, 1)
	numericalGradCheck(t, model, x, []int{0, 1})
}
