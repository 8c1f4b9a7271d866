package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.01, 10}, {1, 100},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail is reported at the highest percentile with at least ten
// samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		got := tailLevel(c.n)
		if got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Ceil(got*float64(c.n))); got > 0.5 && beyond < 10 {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond it", c.n, got, beyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the driver applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2.5, 9, 4, 4, 7.25}, 3.25, 4, 8.125},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	const rate, start, span = 20.0, 3 * time.Second, 11 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, start, span)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, start, span)
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, start, span)
	if !slices.Equal(a, b) {
		t.Error("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 220 {
		t.Errorf("%d arrivals, want rate x span = 220", len(a))
	}
	if !slices.IsSorted(a) || a[0] < start || a[len(a)-1] >= start+span {
		t.Errorf("schedule not sorted inside [start, start+span): first %v last %v", a[0], a[len(a)-1])
	}
	// Not periodic: gaps differ, so captures cannot alias a ticker.
	gaps := map[time.Duration]bool{}
	for i := 1; i < len(a); i++ {
		gaps[a[i]-a[i-1]] = true
	}
	if len(gaps) < len(a)/2 {
		t.Errorf("only %d distinct gaps among %d arrivals", len(gaps), len(a))
	}
}

func TestStandingBacklog(t *testing.T) {
	ph := phase{0, 1000}
	// Ten operations due in the last tenth, one every 10 ns.
	due := []int64{900, 910, 920, 930, 940, 950, 960, 970, 980, 990}
	keepsUp := []int64{900, 931, 931, 931, 941, 950, 960, 995, 995, 995}  // late at times, catches up
	behind := []int64{925, 935, 945, 955, 965, 975, 985, 995, 1005, 1015} // always 2 to 3 behind
	for _, c := range []struct {
		name  string
		start []int64
		want  int64
	}{{"keeps up", keepsUp, 0}, {"behind", behind, 2}} {
		got := standingBacklog(len(due), ph, func(i int) (int64, int64) { return due[i], c.start[i] })
		if got != c.want {
			t.Errorf("%s: standing backlog %d, want %d", c.name, got, c.want)
		}
	}
}

// A rate is completions over the whole phase: a stall that empties a
// quarter of the window must show in it.
func TestRateCountsStalls(t *testing.T) {
	ph := phase{0, int64(10 * time.Second)}
	if got := ph.rate(1000); got != 100 {
		t.Errorf("rate %v, want 100", got)
	}
	if got := ph.rate(750); got != 75 {
		t.Errorf("rate with a quarter of the window stalled %v, want 75", got)
	}
}
