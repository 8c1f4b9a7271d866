package models

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"hawccc/internal/tensor"
	"hawccc/internal/upsample"
)

func TestHAWCSaveLoadRoundTrip(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train, TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHAWC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Target() != h.Target() {
		t.Errorf("target %d, want %d", loaded.Target(), h.Target())
	}
	if loaded.Projector.Name() != "HAP" {
		t.Errorf("projector %q", loaded.Projector.Name())
	}
	// The loaded network must be bit-identical: same logits on a fixed
	// input. (End-to-end predictions can differ on boundary samples since
	// each instance draws its own up-sampling noise.)
	d := upsample.Side(h.Target())
	x := tensor.New(1, d, d, 7)
	x.RandNormal(rand.New(rand.NewSource(99)), 1)
	want := h.Network().Infer(x)
	got := loaded.Network().Infer(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("logit %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestHAWCSaveLoadFiles(t *testing.T) {
	split := smallSplit(t)
	h := NewHAWC()
	if err := h.Train(split.Train[:40], TrainConfig{Epochs: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.hwcm")
	if err := SaveHAWCFile(path, h); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHAWCFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = loaded.PredictHuman(split.Test[0].Cloud)
}

func TestHAWCSaveErrors(t *testing.T) {
	h := NewHAWC()
	var buf bytes.Buffer
	if err := h.Save(&buf); err == nil {
		t.Error("saving untrained model accepted")
	}
	if _, err := LoadHAWC(bytes.NewReader([]byte("JUNKJUNK"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := LoadHAWCFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
