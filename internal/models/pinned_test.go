package models

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"hawccc/internal/nn"
	"hawccc/internal/quant"
)

// TestTrainedNetworksPinned pins what training and quantization produce
// for HAWC, PointNet and the AutoEncoder at fixed seeds: the FNV-1a of
// each network's saved weights, of each int8 graph's ops and scales, and
// the AutoEncoder's decision threshold. A refactor of the training loop,
// the weight init order or quant.Quantize that moves one bit fails here.
// arm64 fuses multiply-adds, so the constants hold on amd64 only.
func TestTrainedNetworksPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("weights are pinned for amd64; arm64 fuses multiply-adds")
	}
	split := smallSplit(t)
	calib := split.Train[:20]
	cfg := TrainConfig{Epochs: 3, Seed: 2}

	h := NewHAWC()
	if err := h.Train(split.Train[:60], cfg); err != nil {
		t.Fatal(err)
	}
	hq, err := h.Quantize(calib)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPointNet()
	if err := p.Train(split.Train[:60], TrainConfig{Epochs: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	pq, err := p.Quantize(calib)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoEncoder()
	if err := a.Train(split.Train[:60], TrainConfig{Epochs: 10, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	aq, err := a.Quantize(calib)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name         string
		net          *nn.Sequential
		qnet         *quant.Model
		weights, ops uint64
	}{
		{"HAWC", h.Network(), hq.QuantNetwork(), 0xcf3a1a19c56de8b3, 0x6807b5ad6aaa17f8},
		{"PointNet", p.Network(), pq.QuantNetwork(), 0x68295139a21a76cd, 0x36680d2d793bfcca},
		{"AutoEncoder", a.Network(), aq.QuantNetwork(), 0x44328cf6e2753c3c, 0xae2c14244ded51cb},
	} {
		w := fnv.New64a()
		if err := c.net.Save(w); err != nil {
			t.Fatal(err)
		}
		q := fnv.New64a()
		fmt.Fprintf(q, "%v %v\n", c.qnet.InScale, c.qnet.InZero)
		for _, op := range c.qnet.Ops {
			fmt.Fprintf(q, "%T %+v\n", op, op)
		}
		if got := w.Sum64(); got != c.weights {
			t.Errorf("%s weights FNV %#x, want %#x", c.name, got, c.weights)
		}
		if got := q.Sum64(); got != c.ops {
			t.Errorf("%s int8 graph FNV %#x, want %#x", c.name, got, c.ops)
		}
	}
	if want := 1.0251737311741238; a.threshold != want {
		t.Errorf("AutoEncoder threshold %v, want %v", a.threshold, want)
	}
}
