// Command bench is the frame ledger: one benchmark that follows a LiDAR
// sweep from capture to a count a dashboard can query, on four workloads,
// with the wall time attributed to each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload   string
	seed       int64
	seconds    float64 // measured window
	trace      bool
	outDir     string // result and span files; "" keeps none
	tmpDir     string // scratch, removed at exit
	modelPath  string // trained classifier to load; "" trains one at set-up
	corruptRef bool   // test hook: falsify one reference count
}

// historyDir makes a fresh directory for one backend's history store.
func (rc runConfig) historyDir() string {
	dir, err := os.MkdirTemp(rc.tmpDir, "history-")
	if err != nil {
		// The backend reports the unusable directory when it opens it.
		return filepath.Join(rc.tmpDir, "history-unavailable")
	}
	return dir
}

// fileBase names the run's result and span files; it is used only with
// -out.
func (rc runConfig) fileBase() string {
	t := 0
	if rc.trace {
		t = 1
	}
	return filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, t))
}

// writeSpans keeps the traced run's spans when -out asks for files.
func (rc runConfig) writeSpans(tr *tracer) error {
	if rc.outDir == "" {
		return nil
	}
	return tr.write(rc.fileBase() + ".spans.jsonl")
}

// outcome is what one run measured.
type outcome struct {
	rc               runConfig
	untraced, traced window
	e2e              *metricSet // nil in a traced run: end-to-end numbers come from untraced runs only
	layers           *metricSet
	attempted        int64
	fails            *failures
}

func newOutcome(rc runConfig, obs *observations, pl plan, fails *failures, setup time.Duration, before, after procSample) *outcome {
	out := &outcome{rc: rc, layers: newMetricSet(perLayer), attempted: obs.attempted(), fails: fails}
	out.untraced = obs.window(pl.untraced, !rc.trace)
	measured := out.untraced
	if rc.trace {
		out.traced = obs.window(pl.traced, true)
		measured = out.traced
		out.layers.set("trace.overhead_ratio", traceOverhead(rc.workload, out.untraced, out.traced), 0)
		out.layers.set("backend.dirty_pole_ratio", obs.dirtyRatio(pl.traced), 0)
	} else {
		out.e2e = newMetricSet(endToEnd)
		out.e2e.set("setup_s", setup.Seconds(), 1)
		out.untraced.e2e(out.e2e)
	}
	measured.layers(out.layers, before, after)
	return out
}

// traceOverhead compares the workload's headline metric between the
// traced window and the untraced one before it: positive = tracing cost.
// The headline is the latency on walkway, whose rate is paced, and the
// throughput elsewhere.
func traceOverhead(workload string, untraced, traced window) float64 {
	if workload == "walkway" {
		if base := p50(untraced.headlineLatency()); base > 0 {
			return p50(traced.headlineLatency())/base - 1
		}
		return 0
	}
	if base := untraced.ph.rate(untraced.headlineCount()); base > 0 {
		return 1 - traced.ph.rate(traced.headlineCount())/base
	}
	return 0
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run by name with its unit, writes the
// result file when asked to, and prints the driver's line last. It
// returns whether the run was correct.
func (out *outcome) report() (bool, error) {
	failed := out.fails.total()
	out.layers.set("failed_ratio", float64(failed)/float64(max(out.attempted, 1)), int(out.attempted))
	layers, lerr := out.layers.finish(true)
	var e2e map[string]metricValue
	var eerr error
	specs, line := perLayer, layers
	if out.e2e != nil {
		e2e, eerr = out.e2e.finish(false)
		specs, line = endToEnd, e2e
	}
	correct := failed == 0 && lerr == nil && eerr == nil && out.attempted > 0

	fmt.Printf("== %s seed=%d window=%gs trace=%v\n", out.rc.workload, out.rc.seed, out.rc.seconds, out.rc.trace)
	for _, s := range endToEnd {
		if v, ok := e2e[s.Name]; ok {
			fmt.Printf("%-40s %14.4f %-7s n=%d\n", s.Name, v.Value, v.Unit, v.N)
		}
	}
	for _, s := range perLayer {
		if v := layers[s.Name]; v.set {
			fmt.Printf("%-40s %14.4f %-7s n=%d\n", s.Name, v.Value, v.Unit, v.N)
		}
	}
	fmt.Printf("failures: %v of %d attempted\n", out.fails.asMap(), out.attempted)
	for _, err := range []error{lerr, eerr} {
		if err != nil {
			fmt.Println(err)
		}
	}

	if out.rc.outDir != "" {
		res := resultFile{
			Header: newHeader(out.rc), Workload: out.rc.workload, Correct: correct, Attempted: out.attempted,
			Failed: failed, Failures: out.fails.asMap(), EndToEnd: e2e, PerLayer: layers,
		}
		if err := res.write(out.rc.fileBase() + ".json"); err != nil {
			return correct, err
		}
	}

	dl := driverLine{Correct: correct, Attempted: out.attempted, Failed: failed, Metrics: map[string]driverValue{}}
	for _, s := range specs {
		dl.Metrics[s.Name] = driverValue{line[s.Name].Value, s.Unit}
	}
	b, err := json.Marshal(dl)
	if err != nil {
		return correct, err
	}
	fmt.Println(string(b))
	return correct, nil
}

func runWorkload(rc runConfig) (*outcome, error) {
	if spec, ok := poleSpecs[rc.workload]; ok {
		return runPoleWorkload(rc, spec)
	}
	if spec, ok := fleetSpecs[rc.workload]; ok {
		return runFleetWorkload(rc, spec)
	}
	return nil, fmt.Errorf("unknown workload %q", rc.workload)
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload: walkway, crowd, fleet_ingest or fleet_dashboard (default: all four, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "measured window in seconds (the issue's 30 s; warm-up and the traced window scale with it)")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass (per-layer metrics, span file, ledger replays)")
	outDir := fs.String("out", "", "directory to keep result and span files in (default: none kept)")
	check := fs.Bool("check", false, "compare result files: -check A.json... -- B.json...")
	corrupt := fs.Bool("corrupt-ref", false, "test hook: falsify one reference count, so a pole workload must fail")
	model := fs.String("model", "", "pole workloads load the classifier from this file (default: train it at set-up, as polesim does)")
	trainTo := fs.String("train-model", "", "train the classifier, write it to this file and exit (run.sh does, once per build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		return runCheck(fs.Args())
	}
	if *trainTo != "" {
		clf, err := trainModel(modelSeed)
		if err == nil {
			err = saveModel(*trainTo, clf)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: train model:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	tmp, err := os.MkdirTemp("", "framebench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}

	type pass struct {
		workload string
		trace    bool
	}
	var passes []pass
	if *workload != "" {
		passes = []pass{{*workload, *trace == 1}}
	} else {
		for _, w := range workloads {
			passes = append(passes, pass{w.Name, false}, pass{w.Name, true})
		}
	}
	code := 0
	for _, p := range passes {
		rc := runConfig{
			workload: p.workload, seed: *seed, seconds: *seconds, trace: p.trace,
			outDir: *outDir, tmpDir: tmp, modelPath: *model, corruptRef: *corrupt,
		}
		out, err := runWorkload(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p.workload, err)
			return 2
		}
		correct, err := out.report()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p.workload, err)
			return 2
		}
		if !correct {
			code = 1
		}
	}
	return code
}
