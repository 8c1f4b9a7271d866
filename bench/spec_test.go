package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape the driver's contract fixes for
// ../BENCHMARK.json: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: runSeconds, Workloads: workloads,
	}
	for _, s := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, e2eJSON{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{s.Name, s.Unit, s.Better})
	}
	return b
}

// BENCHMARK.json must say what spec.go says. Run with
// UPDATE_BENCHMARK_JSON=1 to rewrite it from spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := specJSON()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from spec.go:\n got %+v\nwant %+v", path, got, want)
	}
}

// Every name is well formed and used once, the counts are within the
// contract, and a run reports each metric exactly once.
func TestSpecNames(t *testing.T) {
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !wellFormed.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			name(s.Name)
			if !unit.MatchString(s.Unit) {
				t.Errorf("%s: unit %q", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better %q", s.Name, s.Better)
			}
		}
	}
	setup := false
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	// A metric set takes each name of its list once and no other name.
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		m := newMetricSet(specs)
		for _, s := range specs {
			m.set(s.Name, 1, 1)
		}
		values, err := m.finish(false)
		if err != nil || len(values) != len(specs) {
			t.Errorf("reporting every metric once: %d values, %v", len(values), err)
		}
		m.set(specs[0].Name, 1, 1)
		m.set("no.such.metric", 1, 1)
		if _, err := m.finish(false); err == nil {
			t.Error("a metric set twice and an unknown metric went unnoticed")
		}
	}
	if _, err := newMetricSet(endToEnd).finish(false); err == nil {
		t.Error("unmeasured end-to-end metrics went unnoticed")
	}
}
