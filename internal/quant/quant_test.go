package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hawccc/internal/nn"
	"hawccc/internal/tensor"
)

func TestRangeParams(t *testing.T) {
	tests := []struct {
		name     string
		r        Range
		wantZero bool // zero point at an extreme
	}{
		{"symmetric", Range{-1, 1}, false},
		{"positive only", Range{0, 6}, true},  // relu-style: zero = -128
		{"negative only", Range{-4, 0}, true}, // zero = 127
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			scale, zero := tt.r.Params()
			if scale <= 0 {
				t.Fatalf("scale %v", scale)
			}
			// Real 0 must be exactly representable.
			real0 := scale * float64(0-zero)
			_ = real0
			// quantize(0) must be in range.
			q := int32(math.Round(0/scale)) + zero
			if q < -128 || q > 127 {
				t.Errorf("quantized zero %d out of range", q)
			}
			// Range endpoints must be representable within one step.
			for _, v := range []float64{tt.r.Min, tt.r.Max} {
				q := float64(clampInt8(int32(math.Round(v/scale)) + zero))
				back := scale * (q - float64(zero))
				if math.Abs(back-v) > scale*1.01 {
					t.Errorf("endpoint %v reconstructs to %v (scale %v)", v, back, scale)
				}
			}
		})
	}
	// Degenerate ranges.
	if s, z := (Range{0, 0}).Params(); s != 1 || z != 0 {
		t.Error("zero-width range should give identity params")
	}
	if s, z := EmptyRange().Params(); s != 1 || z != 0 {
		t.Error("empty range should give identity params")
	}
}

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(100)
	x.RandNormal(rng, 2)
	r := EmptyRange()
	r.Update(x)
	scale, zero := r.Params()
	q := QuantizeActivations(x, scale, zero)
	back := q.Dequantize()
	for i := range x.Data {
		if math.Abs(float64(back.Data[i]-x.Data[i])) > scale {
			t.Fatalf("element %d: %v → %v (scale %v)", i, x.Data[i], back.Data[i], scale)
		}
	}
}

func TestQuantizeWeightsSymmetric(t *testing.T) {
	w := tensor.FromSlice([]float32{-2, -1, 0, 1, 2}, 5)
	q, scale := QuantizeWeights(w)
	if q[2] != 0 {
		t.Error("zero weight must quantize to 0")
	}
	if q[0] != -q[4] || q[1] != -q[3] {
		t.Error("symmetric weights must quantize symmetrically")
	}
	if math.Abs(scale-2.0/127) > 1e-12 {
		t.Errorf("scale = %v", scale)
	}
	// All-zero weights must not divide by zero.
	q2, s2 := QuantizeWeights(tensor.New(4))
	if s2 <= 0 || q2[0] != 0 {
		t.Error("zero weights mishandled")
	}
}

func TestMultiplierMatchesFloat(t *testing.T) {
	f := func(m float64, acc int32) bool {
		m = math.Abs(m)
		m = math.Mod(m, 4)
		if m < 1e-6 || math.IsNaN(m) {
			m = 0.5
		}
		if acc > 1<<24 || acc < -(1<<24) {
			acc = acc % (1 << 24)
		}
		mult := NewMultiplier(m)
		got := mult.Apply(acc)
		want := math.Round(float64(acc) * m)
		return math.Abs(float64(got)-want) <= 1.0+math.Abs(want)*1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultiplierPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiplier(0)
}

// buildCNN returns a trained-ish small CNN (random weights, realistic BN
// stats) for fold/quantize testing.
func buildCNN(rng *rand.Rand) *nn.Sequential {
	m := (&nn.Sequential{}).Add(
		nn.NewConv2D(3, 3, 2, 4, rng),
		nn.NewBatchNorm(4),
		nn.NewReLU(),
		nn.NewMaxPool2D(),
		nn.NewFlatten(),
		nn.NewDense(2*2*4, 8, rng),
		nn.NewBatchNorm(8),
		nn.NewReLU(),
		nn.NewDense(8, 2, rng),
	)
	// Run a few training-mode forwards so BN running stats are realistic.
	for i := 0; i < 20; i++ {
		x := tensor.New(8, 4, 4, 2)
		x.RandNormal(rng, 1)
		m.Forward(x)
	}
	return m
}

func TestFoldBatchNormEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := buildCNN(rng)
	folded := FoldBatchNorm(m)

	// Folded model must have no BatchNorm layers.
	for _, l := range folded.Layers {
		if _, ok := l.(*nn.BatchNorm); ok {
			t.Fatal("BatchNorm survived folding")
		}
	}

	for trial := 0; trial < 5; trial++ {
		x := tensor.New(3, 4, 4, 2)
		x.RandNormal(rng, 1)
		want := m.Infer(x)
		got := folded.Infer(x)
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-3 {
				t.Fatalf("trial %d output %d: folded %v vs original %v",
					trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestFoldDropsDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := (&nn.Sequential{}).Add(
		nn.NewDense(4, 4, rng),
		nn.NewDropout(0.5, rng),
		nn.NewDense(4, 2, rng),
	)
	folded := FoldBatchNorm(m)
	if len(folded.Layers) != 2 {
		t.Errorf("folded layers = %d, want 2 (dropout removed)", len(folded.Layers))
	}
}

func TestQuantizedCNNCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := buildCNN(rng)

	calib := make([]*tensor.Tensor, 20)
	for i := range calib {
		x := tensor.New(1, 4, 4, 2)
		x.RandNormal(rng, 1)
		calib[i] = x
	}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}

	// Quantized logits must be close enough to preserve argmax most of the
	// time and values within a reasonable tolerance.
	agree, total := 0, 0
	var maxErr float64
	for trial := 0; trial < 30; trial++ {
		x := tensor.New(1, 4, 4, 2)
		x.RandNormal(rng, 1)
		fp := m.Infer(x)
		q := qm.Forward(x)
		if nn.Argmax(fp)[0] == nn.Argmax(q)[0] {
			agree++
		}
		total++
		for i := range fp.Data {
			if e := math.Abs(float64(fp.Data[i] - q.Data[i])); e > maxErr {
				maxErr = e
			}
		}
	}
	if agree < total*8/10 {
		t.Errorf("argmax agreement %d/%d", agree, total)
	}
	hi := tensorAbsRange(m, rng)
	if maxErr > hi*0.35 {
		t.Errorf("max logit error %v too large relative to logit scale %v", maxErr, hi)
	}
}

// tensorAbsRange estimates the logit magnitude scale of the model.
func tensorAbsRange(m *nn.Sequential, rng *rand.Rand) float64 {
	x := tensor.New(8, 4, 4, 2)
	x.RandNormal(rng, 1)
	return float64(m.Infer(x).AbsMax())
}

func TestQuantizePointNetStyleGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// PointNet-style graph: shared per-point MLP (points flattened into
	// the batch), group back into clouds of 4 points, max-aggregate, FC.
	m := (&nn.Sequential{}).Add(
		nn.NewDense(3, 8, rng),
		nn.NewBatchNorm(8),
		nn.NewReLU(),
		nn.NewGroup(4),
		nn.NewMaxOverPoints(),
		nn.NewDense(8, 2, rng),
	)
	calib := make([]*tensor.Tensor, 10)
	for i := range calib {
		x := tensor.New(4, 3) // one cloud of 4 points as a "batch"
		x.RandNormal(rng, 1)
		calib[i] = x
	}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3)
	x.RandNormal(rng, 1)
	fp := m.Infer(x)
	q := qm.Forward(x)
	if fp.NumElems() != q.NumElems() {
		t.Fatalf("shape mismatch %v vs %v", fp.Shape, q.Shape)
	}
}

func TestQuantizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := (&nn.Sequential{}).Add(nn.NewDense(2, 2, rng))
	if _, err := Quantize(m, nil); err == nil {
		t.Error("empty calibration accepted")
	}
	// Leading BatchNorm cannot fold.
	m2 := (&nn.Sequential{}).Add(nn.NewBatchNorm(2), nn.NewDense(2, 2, rng))
	x := tensor.New(1, 2)
	if _, err := Quantize(m2, []*tensor.Tensor{x}); err == nil {
		t.Error("unfoldable BatchNorm accepted")
	}
}

func TestQReLUStandalone(t *testing.T) {
	q := &QTensor{Shape: []int{1, 4}, Data: []int8{-10, -3, 0, 5}, Scale: 1, Zero: -3}
	out := QReLU{}.Apply(q)
	want := []int8{-3, -3, 0, 5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("QReLU[%d] = %d, want %d", i, out.Data[i], want[i])
		}
	}
}
