package device

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hawccc/internal/nn"
	"hawccc/internal/quant"
	"hawccc/internal/tensor"
)

// smallCNN builds the HAWC CNN shape at D=16 for costing.
func smallCNN(rng *rand.Rand) (*nn.Sequential, *tensor.Tensor) {
	m := (&nn.Sequential{}).Add(
		nn.NewConv2D(3, 3, 7, 8, rng),
		nn.NewBatchNorm(8),
		nn.NewReLU(),
		nn.NewConv2D(3, 3, 8, 16, rng),
		nn.NewBatchNorm(16),
		nn.NewReLU(),
		nn.NewMaxPool2D(),
		nn.NewConv2D(3, 3, 16, 16, rng),
		nn.NewBatchNorm(16),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(8*8*16, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 2, rng),
	)
	x := tensor.New(1, 16, 16, 7)
	x.RandNormal(rng, 1)
	return m, x
}

// fcNet builds an AutoEncoder-shaped pure-FC net.
func fcNet(rng *rand.Rand) (*nn.Sequential, *tensor.Tensor) {
	m := (&nn.Sequential{}).Add(
		nn.NewDense(46, 64, rng), nn.NewReLU(),
		nn.NewDense(64, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 16, rng), nn.NewReLU(),
		nn.NewDense(16, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 64, rng), nn.NewReLU(),
		nn.NewDense(64, 46, rng),
	)
	x := tensor.New(1, 46)
	x.RandNormal(rng, 1)
	return m, x
}

// pointNet builds a per-point-MLP net (batched dense = conv-like).
func pointNet(rng *rand.Rand) (*nn.Sequential, *tensor.Tensor) {
	m := (&nn.Sequential{}).Add(
		nn.NewDense(3, 64, rng),
		nn.NewBatchNorm(64),
		nn.NewReLU(),
		nn.NewDense(64, 64, rng),
		nn.NewReLU(),
		nn.NewDense(64, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 256, rng),
		nn.NewReLU(),
		nn.NewGroup(289),
		nn.NewMaxOverPoints(),
		nn.NewDense(256, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 2, rng),
	)
	x := tensor.New(289, 3)
	x.RandNormal(rng, 1)
	return m, x
}

// totalMACs sums multiply-accumulates over the graph.
func totalMACs(g Graph) int64 {
	var n int64
	for _, op := range g.Ops {
		n += op.MACs
	}
	return n
}

func TestGraphMACCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, x := smallCNN(rng)
	g := FromSequential(m, x)
	want := int64(16*16*9*7*8 + 16*16*9*8*16 + 8*8*9*16*16 + 8*8*16*128 + 128*2)
	if totalMACs(g) != want {
		t.Errorf("MACs = %d, want %d", totalMACs(g), want)
	}
	// Conv op classed conv-like; batch-1 dense classed FC.
	if g.Ops[0].Class != OpConvLike {
		t.Error("conv not conv-like")
	}
	if g.Ops[11].Class != OpFCLike {
		t.Errorf("batch-1 dense class = %v", g.Ops[11].Class)
	}
}

func TestPerPointDenseIsConvLike(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, x := pointNet(rng)
	g := FromSequential(m, x)
	if g.Ops[0].Class != OpConvLike {
		t.Error("per-point dense (batch 289) should be conv-like (1×1 conv on the TPU)")
	}
	// Head dense after max-pool is batch-1 → FC.
	last := g.Ops[len(g.Ops)-1]
	if last.Class != OpFCLike {
		t.Errorf("head dense class = %v", last.Class)
	}
}

func TestJetsonOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hawc, hx := smallCNN(rng)
	ae, ax := fcNet(rng)
	pn, px := pointNet(rng)

	tHAWC := JetsonNano.EstimateFP32(FromSequential(hawc, hx))
	tAE := JetsonNano.EstimateFP32(FromSequential(ae, ax))
	tPN := JetsonNano.EstimateFP32(FromSequential(pn, px))

	// Table II ordering on the Jetson: AE < HAWC < PointNet.
	if !(tAE < tHAWC && tHAWC < tPN) {
		t.Errorf("Jetson FP32 ordering violated: AE=%v HAWC=%v PN=%v", tAE, tHAWC, tPN)
	}
}

func TestCoralAutoEncoderInt8Regression(t *testing.T) {
	// The paper's standout Table II effect: the FC-heavy AutoEncoder is
	// SLOWER in int8 on the Coral (TPU per-op overhead + bad FC) than in
	// FP32 on its CPU, while conv models accelerate dramatically.
	rng := rand.New(rand.NewSource(4))
	ae, ax := fcNet(rng)

	aeGraph := FromSequential(ae, ax)
	fp := CoralDevBoard.EstimateFP32(aeGraph)
	q8 := CoralDevBoard.EstimateInt8(aeGraph)
	if q8 <= fp {
		t.Errorf("AutoEncoder int8 on Coral (%v) should regress vs FP32 (%v)", q8, fp)
	}

	pn, px := pointNet(rng)
	pnGraph := FromSequential(pn, px)
	pnFP := CoralDevBoard.EstimateFP32(pnGraph)
	pnQ8 := CoralDevBoard.EstimateInt8(pnGraph)
	if pnQ8 >= pnFP {
		t.Errorf("PointNet int8 on Coral (%v) should be much faster than FP32 (%v)", pnQ8, pnFP)
	}
	if float64(pnFP)/float64(pnQ8) < 5 {
		t.Errorf("PointNet Coral speedup = %.1fx, expected large", float64(pnFP)/float64(pnQ8))
	}
}

func TestQuantGraphCosting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, x := smallCNN(rng)
	qm, err := quant.Quantize(m, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	g := FromQuant(qm, x)
	if totalMACs(g) == 0 {
		t.Fatal("quant graph has zero MACs")
	}
	// int8 on the Jetson must beat FP32 for this conv net.
	fp := JetsonNano.EstimateFP32(FromSequential(m, x))
	q8 := JetsonNano.EstimateInt8(g)
	if q8 >= fp {
		t.Errorf("int8 (%v) should beat FP32 (%v) on Jetson", q8, fp)
	}
}

func TestSVMGraph(t *testing.T) {
	g := SVMGraph(500, 46)
	if totalMACs(g) != 500*47 {
		t.Errorf("SVM MACs = %d", totalMACs(g))
	}
	d := JetsonNano.EstimateFP32(g)
	if d <= 0 || d > time.Millisecond {
		t.Errorf("SVM estimate = %v, want sub-millisecond", d)
	}
}

func TestEstimatesArePositiveAndOverheadBound(t *testing.T) {
	// An empty graph still costs the per-inference overhead.
	for _, p := range []Profile{JetsonNano, CoralDevBoard} {
		if got := p.EstimateFP32(Graph{}); got != p.PerInference {
			t.Errorf("%s empty graph = %v, want %v", p.Name, got, p.PerInference)
		}
	}
}

// TestFromSequentialConcurrent costs one shared model from two goroutines
// at once. Costing runs the inference pass, which writes no layer state,
// so under -race this proves the cost model leaves the model it costs
// untouched.
func TestFromSequentialConcurrent(t *testing.T) {
	m, x := smallCNN(rand.New(rand.NewSource(6)))
	want := totalMACs(FromSequential(m, x))
	var wg sync.WaitGroup
	got := make([]int64, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = totalMACs(FromSequential(m, x))
		}()
	}
	wg.Wait()
	for i, n := range got {
		if n != want {
			t.Errorf("goroutine %d: %d MACs, want %d", i, n, want)
		}
	}
}
