package main

import (
	"testing"
	"time"
)

// TestSummaryReportsRootMSE pins the label "MSE" to metrics.MSE, the root
// of the mean squared error that hawcbench and Counter.Evaluate print —
// not the plain mean squared error (8.00 here).
func TestSummaryReportsRootMSE(t *testing.T) {
	got := summary(1500*time.Millisecond, []float64{1, 5}, []float64{1, 1})
	const want = "2 frames in 1.5s — MAE 2.00, MSE 2.83\n"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
