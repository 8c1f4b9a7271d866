package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted samples:
// the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// tailLevel picks the highest percentile that still has at least ten
// samples beyond it; with fewer than 40 samples that is the median.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// sortedCopy leaves the caller's slice untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of run values, as Python's statistics.median: the mean of the
// two middle values when the count is even.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) — the
// "exclusive" method the driver applies to ten runs — so the comparator
// and the driver agree on a spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// poissonSchedule returns the due offsets of an open-loop arrival
// process of the given mean rate over [start, start+span). It draws the
// arrivals of a Poisson process conditioned on its expected count —
// rate·span instants, independent and uniform over the span, sorted — so
// arrivals never alias a periodic ticker yet every seed offers exactly
// the same amount of work, which keeps rates comparable across seeds.
func poissonSchedule(rng *rand.Rand, rate float64, start, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// p50 is the nearest-rank median of latency samples.
func p50(ms []float64) float64 { return percentile(sortedCopy(ms), 0.50) }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
