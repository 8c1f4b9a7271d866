package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 180}}, 60},
		{"overlapping count once", []span{{start: 110, end: 150}, {start: 130, end: 160}}, 50},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"reaching outside", []span{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
		{"wholly outside", []span{{start: 0, end: 100}, {start: 200, end: 250}}, 100},
		{"covering", []span{{start: 0, end: 300}}, 0},
		{"out of order", []span{{start: 150, end: 180}, {start: 110, end: 120}}, 60},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerWritesJSONLines(t *testing.T) {
	tr := newTracer()
	tr.add("dropped", "", 1, 1, 0, 1) // switched off
	tr.on.Store(true)
	tr.add("frame", "", 3, 9, 100, 250)
	tr.add("classify", "frame", 3, 9, 120, 240)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Name, Parent, ID string
		StartNS          int64 `json:"start_ns"`
		EndNS            int64 `json:"end_ns"`
	}
	var got []line
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, l)
	}
	want := []line{{"frame", "", "3/9", 100, 250}, {"classify", "frame", "3/9", 120, 240}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("spans %+v, want %+v", got, want)
	}
}
