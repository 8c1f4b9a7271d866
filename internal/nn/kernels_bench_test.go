package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"hawccc/internal/tensor"
)

// Microbenchmarks for the inference kernels at HAWC's real layer shapes
// (17×17×7 input, 3×3 convs, Dense 1024→128), GEMM path against the
// scalar reference — the one remaining kernel speed comparison:
//
//	go test ./internal/nn -bench 'Conv|Dense' -benchmem

func benchConv(b *testing.B, batch int, naive bool) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 3, 7, 8, rng)
	x := randTensor(rng, batch, 17, 17, 7)
	out := tensor.New(batch, 17, 17, 8)
	s := newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			c.applyNaive(x, out)
		} else {
			s.reset()
			c.apply(x, out, s)
		}
	}
}

func BenchmarkConv2D(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("gemm/batch%d", batch), func(b *testing.B) { benchConv(b, batch, false) })
		b.Run(fmt.Sprintf("naive/batch%d", batch), func(b *testing.B) { benchConv(b, batch, true) })
	}
}

func benchDense(b *testing.B, batch int, naive bool) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(1024, 128, rng)
	x := randTensor(rng, batch, 1024)
	out := tensor.New(batch, 128)
	s := newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			d.applyNaive(x, out)
		} else {
			s.reset()
			d.apply(x, out, s)
		}
	}
}

func BenchmarkDense(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("gemm/batch%d", batch), func(b *testing.B) { benchDense(b, batch, false) })
		b.Run(fmt.Sprintf("naive/batch%d", batch), func(b *testing.B) { benchDense(b, batch, true) })
	}
}

// hawcShapeNet is a random-weight network with HAWC's layer shapes
// (models.buildHAWCNet at D = 15, C = 7, the 225-point input of the
// ledger's scenes), its batch-norm running statistics drawn away from
// the identity so the normalization does real work.
func hawcShapeNet(rng *rand.Rand) *Sequential {
	const d, c = 15, 7
	m := (&Sequential{}).Add(
		NewConv2D(3, 3, c, 8, rng),
		NewBatchNorm(8),
		NewReLU(),
		NewConv2D(3, 3, 8, 16, rng),
		NewBatchNorm(16),
		NewReLU(),
		NewMaxPool2D(),
		NewConv2D(3, 3, 16, 16, rng),
		NewBatchNorm(16),
		NewReLU(),
		NewFlatten(),
		NewDense((d/2)*(d/2)*16, 128, rng),
		NewReLU(),
		NewDense(128, 2, rng),
	)
	for _, l := range m.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			for i := range bn.RunningMean.Data {
				bn.RunningMean.Data[i] = float32(rng.NormFloat64() * 0.1)
				bn.RunningVar.Data[i] = float32(0.5 + rng.Float64())
				bn.Gamma.Value.Data[i] = float32(0.5 + rng.Float64())
				bn.Beta.Value.Data[i] = float32(rng.NormFloat64() * 0.1)
			}
		}
	}
	return m
}

// BenchmarkInferHAWCShape prices HAWC's CNN without training a model: one
// Sequential.Infer over a batch of 5 (a walkway frame) and 16 (a crowd
// frame's batch) 15×15×7 images, reported per cluster.
//
//	go test ./internal/nn -run NONE -bench InferHAWCShape
func BenchmarkInferHAWCShape(b *testing.B) {
	for _, batch := range []int{5, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m := hawcShapeNet(rng)
			x := randTensor(rng, batch, 15, 15, 7)
			m.Infer(x) // pack the weight panels, warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Infer(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*batch), "us/cluster")
		})
	}
}
