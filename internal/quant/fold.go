package quant

import (
	"fmt"
	"math"
	"math/rand"

	"hawccc/internal/nn"
)

// FoldBatchNorm returns a model equivalent (in inference mode) to m
// with every Conv2D→BatchNorm and Dense→BatchNorm pair collapsed into a
// single layer whose weights absorb the normalization:
//
//	W′[..., c] = W[..., c] · γ_c / √(σ²_c + ε)
//	b′[c]      = (b[c] − μ_c) · γ_c / √(σ²_c + ε) + β_c
//
// using the BatchNorm's running statistics. Only a folded layer is new.
// Dropout, the identity at inference, is dropped, and every other layer
// is m's own: Infer writes no layer state, so the two models may share
// it, and m is left unchanged.
func FoldBatchNorm(m *nn.Sequential) *nn.Sequential {
	out := &nn.Sequential{}
	rng := rand.New(rand.NewSource(0)) // constructors need an rng; weights are overwritten
	for i := 0; i < len(m.Layers); i++ {
		var bn *nn.BatchNorm
		if i+1 < len(m.Layers) {
			bn, _ = m.Layers[i+1].(*nn.BatchNorm)
		}
		switch l := m.Layers[i].(type) {
		case *nn.Dropout:
			continue
		case *nn.Conv2D:
			if bn != nil {
				nc := nn.NewConv2D(l.KH, l.KW, l.Cin, l.Cout, rng)
				foldInto(nc.W, nc.B, l.W, l.B, bn)
				out.Add(nc)
				i++
				continue
			}
		case *nn.Dense:
			if bn != nil {
				nd := nn.NewDense(l.In, l.Out, rng)
				foldInto(nd.W, nd.B, l.W, l.B, bn)
				out.Add(nd)
				i++
				continue
			}
		}
		out.Add(m.Layers[i])
	}
	return out
}

// foldInto writes w and b, rescaled by bn, into dw and db. Weight layout
// has the output channel as the innermost dimension for both Conv2D
// ([KH, KW, Cin, Cout]) and Dense ([In, Out]).
func foldInto(dw, db, w, b *nn.Param, bn *nn.BatchNorm) {
	cout := len(b.Value.Data)
	if bn.C != cout {
		panic(fmt.Sprintf("quant: BatchNorm(%d) after layer with %d outputs", bn.C, cout))
	}
	factor := make([]float32, cout)
	for c := 0; c < cout; c++ {
		factor[c] = bn.Gamma.Value.Data[c] /
			float32(math.Sqrt(float64(bn.RunningVar.Data[c])+bn.Eps))
	}
	for i, v := range w.Value.Data {
		dw.Value.Data[i] = v * factor[i%cout]
	}
	for c, v := range b.Value.Data {
		db.Value.Data[c] = (v-bn.RunningMean.Data[c])*factor[c] + bn.Beta.Value.Data[c]
	}
}
