package nn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hawccc/internal/tensor"
)

// The GEMM path's contract is bit equality with the scalar reference:
// same operations, same order, per output element. These tests pin that
// contract at the layer level (the kernels package pins it at the matrix
// level) across random shapes, batch sizes, and input sparsity.

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// sparsify zeroes a fraction of elements, the regime the old
// zero-activation fast path specialized for (post-ReLU feature maps are
// roughly half zeros).
func sparsify(rng *rand.Rand, t *tensor.Tensor, frac float64) {
	for i := range t.Data {
		if rng.Float64() < frac {
			t.Data[i] = 0
		}
	}
}

func newScratch() *Scratch { return new(Scratch) }

// TestConvGemmMatchesNaive drives random conv shapes and batch sizes
// through both kernels and requires exact bit equality.
func TestConvGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := newScratch()
	f := func(nRaw, hRaw, wRaw, ciRaw, coRaw, kRaw uint8) bool {
		n := int(nRaw%5) + 1
		h := int(hRaw%12) + 1
		w := int(wRaw%12) + 1
		cin := int(ciRaw%6) + 1
		cout := int(coRaw%10) + 1
		ks := []int{1, 3, 5}
		kh := ks[int(kRaw)%3]
		kw := ks[int(kRaw/3)%3]
		c := NewConv2D(kh, kw, cin, cout, rng)
		x := randTensor(rng, n, h, w, cin)
		want := tensor.New(n, h, w, cout)
		got := tensor.New(n, h, w, cout)
		c.applyNaive(x, want)
		s.reset()
		c.apply(x, got, s)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Logf("n=%d h=%d w=%d cin=%d cout=%d k=%dx%d: [%d] gemm %v naive %v",
					n, h, w, cin, cout, kh, kw, i, got.Data[i], want.Data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseGemmMatchesNaive covers both kernel paths: batch sizes below
// PackMinRows take the direct loop, larger ones the packed micro-kernel.
func TestDenseGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newScratch()
	for _, n := range []int{1, 2, 3, 4, 8, 17, 32} {
		for _, dims := range [][2]int{{5, 3}, {128, 2}, {64, 31}} {
			d := NewDense(dims[0], dims[1], rng)
			x := randTensor(rng, n, dims[0])
			want := tensor.New(n, dims[1])
			got := tensor.New(n, dims[1])
			d.applyNaive(x, want)
			s.reset()
			d.apply(x, got, s)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d in=%d out=%d: [%d] gemm %v naive %v",
						n, dims[0], dims[1], i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSparseDenseInputsAgree is the regression test for removing the
// data-dependent zero-activation skip: sparse and dense inputs must go
// through the identical code path, and the GEMM and naive kernels must
// agree on both. (Before the removal, the skip made conv latency depend
// on scene content; it never changed values — x==0 contributes +0.0 —
// and this pins that both kernels still agree in the sparse regime.)
func TestSparseDenseInputsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newScratch()
	c := NewConv2D(3, 3, 4, 8, rng)
	d := NewDense(72, 9, rng)
	for _, frac := range []float64{0, 0.5, 0.95, 1} {
		x := randTensor(rng, 3, 6, 6, 4)
		sparsify(rng, x, frac)
		want := tensor.New(3, 6, 6, 8)
		got := tensor.New(3, 6, 6, 8)
		c.applyNaive(x, want)
		s.reset()
		c.apply(x, got, s)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("conv sparsity %v: [%d] gemm %v naive %v", frac, i, got.Data[i], want.Data[i])
			}
		}
		xd := randTensor(rng, 5, 72)
		sparsify(rng, xd, frac)
		wantD := tensor.New(5, 9)
		gotD := tensor.New(5, 9)
		d.applyNaive(xd, wantD)
		s.reset()
		d.apply(xd, gotD, s)
		for i := range wantD.Data {
			if gotD.Data[i] != wantD.Data[i] {
				t.Fatalf("dense sparsity %v: [%d] gemm %v naive %v", frac, i, gotD.Data[i], wantD.Data[i])
			}
		}
	}
}

// TestInferNaiveMatchesInfer pins Infer to its oracle end to end on a
// realistic stack with sparse inputs, including the batch>1 case used by
// batched cluster classification: every sample of a batched pass must
// equal its own single-sample pass bit for bit.
func TestInferNaiveMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := inferTestCNN(rng)
	x := randTensor(rng, 6, 4, 4, 2)
	sparsify(rng, x, 0.4)
	fast := m.Infer(x)
	slow := inferNaive(m, x)
	for i := range slow.Data {
		if fast.Data[i] != slow.Data[i] {
			t.Fatalf("Infer[%d] = %v, inferNaive = %v", i, fast.Data[i], slow.Data[i])
		}
	}
	// Batch invariance: each row of the batched result equals the
	// single-sample result for that row.
	per := fast.Dim(1)
	sample := 4 * 4 * 2
	for ni := 0; ni < x.Dim(0); ni++ {
		xi := tensor.FromSlice(x.Data[ni*sample:(ni+1)*sample], 1, 4, 4, 2)
		yi := m.Infer(xi)
		for j := 0; j < per; j++ {
			if yi.Data[j] != fast.Data[ni*per+j] {
				t.Fatalf("sample %d: batched [%d] = %v, solo = %v", ni, j, fast.Data[ni*per+j], yi.Data[j])
			}
		}
	}
}

// TestScratchNoAliasingAcrossModels runs one arena through two models
// with different shape sequences and checks that no two tensors handed
// out within a pass share backing storage — the invariant that lets
// uninit skip zeroing safely.
func TestScratchNoAliasingAcrossModels(t *testing.T) {
	s := newScratch()
	passes := [][][]int{
		{{2, 8, 8, 4}, {2, 128}, {2, 16}},        // model A shapes
		{{1, 17, 17, 7}, {3, 3}, {1, 2}, {5, 5}}, // model B shapes
		{{2, 8, 8, 4}, {2, 128}, {2, 16}},        // model A again, after B grew slots
	}
	for pi, shapes := range passes {
		s.reset()
		live := make([]*tensor.Tensor, 0, len(shapes))
		for _, shape := range shapes {
			live = append(live, s.uninit(shape...))
		}
		// Writing a unique fingerprint through each tensor must not be
		// visible through any other: overlap would corrupt live data.
		for ti, tt := range live {
			for i := range tt.Data {
				tt.Data[i] = float32(1000*pi + 10*ti)
			}
		}
		for ti, tt := range live {
			want := float32(1000*pi + 10*ti)
			for i, v := range tt.Data {
				if v != want {
					t.Fatalf("pass %d tensor %d[%d] = %v, want %v (arena slots alias)", pi, ti, i, v, want)
				}
			}
		}
	}
}
