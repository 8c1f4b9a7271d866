package main

import (
	"testing"

	"hawccc/internal/telemetry"
)

// TestTelemetryWindow pins the per-pole telemetry offset: every pole id
// gets a non-empty window, including ids whose 400-reading stride runs
// past the simulated summer (≥ 39), and neighbouring poles replay
// different readings.
func TestTelemetryWindow(t *testing.T) {
	readings := telemetry.Simulate(telemetry.SummerConfig())
	for _, id := range []int{1, 38, 39, 10000} {
		if len(telemetryWindow(readings, id)) == 0 {
			t.Errorf("pole %d: empty telemetry window", id)
		}
	}
	if telemetryWindow(readings, 1)[0] == telemetryWindow(readings, 2)[0] {
		t.Error("poles 1 and 2 replay the same telemetry window")
	}
}

func TestZoneName(t *testing.T) {
	if got := zoneName(5, 4); got != "zone-1" {
		t.Errorf("zoneName(5, 4) = %q", got)
	}
	if got := zoneName(8, 4); got != "zone-0" {
		t.Errorf("zoneName(8, 4) = %q", got)
	}
	// Zero falls back to the default zone count instead of dividing by it.
	if got := zoneName(3, 0); got != zoneName(3, 4) {
		t.Errorf("zoneName(3, 0) = %q", got)
	}
}
