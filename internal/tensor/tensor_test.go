package tensor

import (
	"math/rand"
	"testing"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.NumElems() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Errorf("shape bookkeeping wrong: %v", x)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	if x.Data[3] != 4 {
		t.Error("FromSlice data")
	}
	// Shares storage.
	d[0] = 9
	if x.Data[0] != 9 {
		t.Error("FromSlice must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shape should panic")
		}
	}()
	FromSlice(d, 3, 3)
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, -1)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestReshape(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Errorf("reshape shape %v", y.Shape)
	}
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Error("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape should panic")
		}
	}()
	x.Reshape(5)
}

func TestFillAndZero(t *testing.T) {
	x := New(4)
	x.Fill(2)
	for _, v := range x.Data {
		if v != 2 {
			t.Fatalf("value %v", v)
		}
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestAbsMax(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2}, 3)
	if x.AbsMax() != 3 {
		t.Errorf("AbsMax = %v", x.AbsMax())
	}
	if New(0).AbsMax() != 0 {
		t.Error("empty AbsMax should be 0")
	}
}

func TestHeInitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(10000)
	x.HeInit(rng, 50) // std = sqrt(2/50) = 0.2
	var mean, varSum float64
	for _, v := range x.Data {
		mean += float64(v)
	}
	mean /= 10000
	for _, v := range x.Data {
		d := float64(v) - mean
		varSum += d * d
	}
	std := varSum / 10000
	if mean > 0.01 || mean < -0.01 {
		t.Errorf("mean = %v", mean)
	}
	if std < 0.03 || std > 0.05 { // 0.2² = 0.04
		t.Errorf("variance = %v, want ≈0.04", std)
	}
}

func TestString(t *testing.T) {
	if s := New(2, 3).String(); s != "Tensor[2 3]" {
		t.Errorf("String = %q", s)
	}
}
