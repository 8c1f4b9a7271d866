package quant

import (
	"math/rand"
	"testing"

	"hawccc/internal/tensor"
)

// Integer arithmetic is exact, so the int8 GEMM path must equal the
// scalar reference element for element — no tolerance.

func TestQConvGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		cin := rng.Intn(5) + 1
		cout := rng.Intn(12) + 1
		h := rng.Intn(9) + 1
		w := rng.Intn(9) + 1
		n := rng.Intn(4) + 1
		op := &QConv2D{
			KH: 3, KW: 3, Cin: cin, Cout: cout,
			W:       make([]int8, 3*3*cin*cout),
			Bias:    make([]int32, cout),
			InScale: 0.1, InZero: int32(rng.Intn(40) - 20),
			OutScale: 0.2, OutZero: int32(rng.Intn(40) - 20),
			Mult:      NewMultiplier(0.5),
			FusedReLU: trial%2 == 0,
		}
		for i := range op.W {
			op.W[i] = int8(rng.Intn(256) - 128)
		}
		for i := range op.Bias {
			op.Bias[i] = int32(rng.Intn(2048) - 1024)
		}
		x := NewQTensor(op.InScale, op.InZero, n, h, w, cin)
		for i := range x.Data {
			x.Data[i] = int8(rng.Intn(256) - 128)
		}
		want := op.ApplyNaive(x)
		got := op.Apply(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d (n=%d h=%d w=%d cin=%d cout=%d): [%d] gemm %d naive %d",
					trial, n, h, w, cin, cout, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestQDenseGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 32} {
		in := rng.Intn(60) + 1
		out := rng.Intn(30) + 1
		op := &QDense{
			In: in, Out: out,
			W:       make([]int8, in*out),
			Bias:    make([]int32, out),
			InScale: 0.1, InZero: int32(rng.Intn(40) - 20),
			OutScale: 0.2, OutZero: int32(rng.Intn(40) - 20),
			Mult:      NewMultiplier(0.25),
			FusedReLU: n%2 == 0,
		}
		for i := range op.W {
			op.W[i] = int8(rng.Intn(256) - 128)
		}
		for i := range op.Bias {
			op.Bias[i] = int32(rng.Intn(2048) - 1024)
		}
		x := NewQTensor(op.InScale, op.InZero, n, in)
		for i := range x.Data {
			x.Data[i] = int8(rng.Intn(256) - 128)
		}
		want := op.ApplyNaive(x)
		got := op.Apply(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n=%d in=%d out=%d: [%d] gemm %d naive %d", n, in, out, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestModelForwardNaiveMatchesForward pins the two routes through a full
// quantized graph (conv, pool, dense, fused ReLU) at several batch sizes.
func TestModelForwardNaiveMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := buildCNN(rng)
	calib := make([]*tensor.Tensor, 10)
	for i := range calib {
		x := tensor.New(1, 4, 4, 2)
		x.RandNormal(rng, 1)
		calib[i] = x
	}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 8} {
		x := tensor.New(n, 4, 4, 2)
		x.RandNormal(rng, 1)
		want := forwardNaive(qm, x)
		got := qm.Forward(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: [%d] gemm %v naive %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}
