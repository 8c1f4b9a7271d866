package geom

import "testing"

func TestAxisValues(t *testing.T) {
	c := Cloud{{1, 2, 3}, {4, 5, 6}}
	if got := AxisValues(c, 0); got[0] != 1 || got[1] != 4 {
		t.Errorf("x values = %v", got)
	}
	if got := AxisValues(c, 2); got[0] != 3 || got[1] != 6 {
		t.Errorf("z values = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	vals := []float64{0, 0.5, 1.5, 2.5, 9.9, -5, 15}
	h := NewHistogram(vals, 0, 10, 10)
	if h.Total() != len(vals) {
		t.Fatalf("Total = %d, want %d (out-of-range values must clamp)", h.Total(), len(vals))
	}
	// -5 clamps into bin 0; 15 clamps into bin 9.
	if h.Counts[0] != 3 { // 0, 0.5, -5
		t.Errorf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 9.9, 15
		t.Errorf("bin 9 = %d, want 2", h.Counts[9])
	}
	if got := h.BinWidth(); got != 1 {
		t.Errorf("BinWidth = %v", got)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{1, 2}, 5, 5, 4) // max <= min
	if h.Total() != 0 {
		t.Error("degenerate range should bin nothing")
	}
	h2 := NewHistogram([]float64{1}, 0, 1, 0)
	if h2.BinWidth() != 0 {
		t.Error("zero bins should have zero width")
	}
}
