package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// Verdicts of the comparator, per workload and end-to-end metric.
const (
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
	verdictBetter     = "better"
)

// side is one set of runs of a metric.
type side struct {
	values     []float64
	q1, q2, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.q2, s.q3 = quartiles(values)
	return s
}

// compare applies a metric's bound to two sets of runs, A the baseline.
// B is worse when its median is beyond the bound in the bad direction.
// Otherwise the pair is unresolved when either set's interquartile range
// is wider than the bound (the runs cannot tell a regression of that size
// from noise), unless every run of B reads better than every run of A.
// Otherwise B is better when its median beats A's by more than A's own
// interquartile range, and the same if not.
func compare(spec metricSpec, a, b side) string {
	sign := 1.0 // positive change = worse
	if spec.Better == "higher" {
		sign = -1
	}
	base := math.Abs(a.q2)
	if base == 0 {
		return verdictUnresolved
	}
	change := sign * (b.q2 - a.q2) / base
	if change > spec.Bound {
		return verdictWorse
	}
	allBetter := slices.Max(b.values) < slices.Min(a.values)
	if spec.Better == "higher" {
		allBetter = slices.Min(b.values) > slices.Max(a.values)
	}
	spread := max(a.q3-a.q1, b.q3-b.q1) / base
	if spread > spec.Bound && !allBetter {
		return verdictUnresolved
	}
	if change < 0 && -change > (a.q3-a.q1)/base {
		return verdictBetter
	}
	return verdictSame
}

// runCheck is -check A.json... -- B.json...: it prints, per workload and
// end-to-end metric, each side's median and quartiles and the verdict,
// and returns non-zero when any metric is worse or a file is unusable.
func runCheck(args []string) int {
	cut := slices.Index(args, "--")
	if cut <= 0 || cut == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench -check A.json... -- B.json...")
		return 2
	}
	var settings header
	a, err := loadRuns(args[:cut], &settings)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(args[cut+1:], &settings); err == nil {
			return printCheck(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench -check:", err)
	return 2
}

// loadRuns groups the end-to-end values of untraced result files by
// workload and metric. Runs of different lengths do not compare: the
// first file read fills settings, and every later file, of either set,
// must have the same window and scale.
func loadRuns(paths []string, settings *header) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct || len(r.EndToEnd) == 0 {
			return nil, fmt.Errorf("%s: not a correct untraced run", p)
		}
		if settings.WindowSeconds == 0 {
			*settings = r.Header
		}
		if h := r.Header; h.WindowSeconds != settings.WindowSeconds || h.Scale != settings.Scale {
			return nil, fmt.Errorf("%s: window %gs at scale %.3g, the other runs have %gs at %.3g", p,
				h.WindowSeconds, h.Scale, settings.WindowSeconds, settings.Scale)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	return runs, nil
}

func printCheck(a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-16s %-20s %5s %-32s %-32s %8s  %s\n", "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			va, vb := a[w.Name][spec.Name], b[w.Name][spec.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-16s %-20s needs at least two runs on each side\n", w.Name, spec.Name)
				code = 2
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			verdict := compare(spec, sa, sb)
			if verdict == verdictWorse && code == 0 {
				code = 1
			}
			show := func(s side) string {
				return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.q2, s.q1, s.q3, len(s.values))
			}
			fmt.Printf("%-16s %-20s %5.2f %-32s %-32s %+7.1f%%  %s\n", w.Name, spec.Name, spec.Bound,
				show(sa), show(sb), 100*(sb.q2-sa.q2)/sa.q2, verdict)
		}
	}
	return code
}
