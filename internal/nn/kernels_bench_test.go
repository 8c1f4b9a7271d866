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
