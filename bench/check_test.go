package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight, []float64{101, 100, 100, 99, 102}, verdictSame},
		{"worse latency", lower, tight, []float64{115, 116, 114, 115, 117}, verdictWorse},
		{"better latency", lower, tight, []float64{90, 91, 89, 90, 92}, verdictBetter},
		{"worse rate", higher, tight, []float64{85, 86, 84, 85, 87}, verdictWorse},
		{"better rate", higher, tight, []float64{110, 111, 109, 110, 112}, verdictBetter},
		{"within bound but noisy", lower, []float64{80, 120, 100, 90, 110}, []float64{85, 118, 102, 95, 111}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{100, 140, 120, 110, 130}, []float64{50, 60, 55, 52, 58}, verdictBetter},
	} {
		if got := compare(c.spec, newSide(c.a), newSide(c.b)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// Sets measured with different windows must be refused, not compared.
func TestCheckRefusesMixedWindows(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64) string {
		rc := runConfig{workload: "walkway", seed: 1, seconds: seconds}
		res := resultFile{Header: newHeader(rc), Workload: rc.workload, Correct: true,
			EndToEnd: map[string]metricValue{"setup_s": {Value: 1, Unit: "s"}}}
		path := filepath.Join(dir, name)
		if err := res.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, long := write("a.json", 10), write("b.json", 10), write("long.json", 30)
	var settings header
	if _, err := loadRuns([]string{a, b}, &settings); err != nil {
		t.Fatalf("equal windows: %v", err)
	}
	if _, err := loadRuns([]string{long}, &settings); err == nil || !strings.Contains(err.Error(), "window 30s") {
		t.Errorf("a 30 s run beside 10 s runs: error %v, want a window mismatch", err)
	}
	if code := runCheck([]string{a, b, "--", b, long}); code != 2 {
		t.Errorf("-check over mixed windows exits %d, want 2", code)
	}
}
