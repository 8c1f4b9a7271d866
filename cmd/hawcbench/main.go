// Command hawcbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	hawcbench -exp table1,table5 -preset standard
//	hawcbench -exp all -preset quick
//
// Experiments: the ids in experimentIDs below (hawcbench -h prints them),
// or "all"; an id outside that list exits 1. fig8 is the combined 8a+8b;
// fig8a/fig8b run the individual variants and only when named.
// Presets: quick, standard, full.
//
// The fleet experiment stands up the campus backend per pole count
// (10/100/1k/10k), streams synthetic reports from a multiplexed fleet
// while dashboard query workers hammer the snapshot-served HTTP query
// API, and, with -fleet-out, writes BENCH_fleet.json (reports/sec, query
// QPS, p99 ingest and query latency, report-conservation check).
// The history experiment benchmarks the FTDC-style time-series store:
// a store-level ingest sweep at 1k/10k poles (appends/sec, bytes/sample
// and compression vs naive 16-byte float64 rows, conservation), a
// bit-exact raw round-trip check, and an end-to-end replay where a
// history-enabled backend ingests fleet reports while scaled query
// workers mix /api/history reads into the dashboard load; -history-out
// writes BENCH_history.json for the CI bench-history gates. The offload
// experiment measures the adaptive edge/cloud classify offload in three
// phases — the quantized cluster transport (bytes/frame vs float32,
// dequantization error vs the tolerance bound, label agreement), an
// edge-only vs forced-offload pole race through a live backend at
// induced edge saturation, and a deterministic thermal ramp through the
// adaptive hysteresis controller; -offload-out writes BENCH_offload.json
// for the CI bench-offload gates. The thermal experiment rederives the
// Figure 10 temperature analysis from history store reads (raw zip + 24h
// downsampled daily maxima) and asserts it matches the in-memory
// telemetry path bit for bit.
//
// SIGINT/SIGTERM stop the run between experiments: the current
// experiment finishes, its output (and any requested JSON artifact
// already produced) is flushed, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"hawccc/internal/experiments"
)

// experimentIDs is every id -exp accepts besides "all", in run order.
var experimentIDs = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"fig4", "fig6", "fig8", "fig8a", "fig8b", "fig9", "fig10",
	"fleet", "history", "offload", "thermal", "fig11",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hawcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids ("+validIDs()+")")
	fleetOut := flag.String("fleet-out", "", "write the fleet-scale backend sweep as JSON to this path (e.g. BENCH_fleet.json)")
	historyOut := flag.String("history-out", "", "write the history-store benchmark as JSON to this path (e.g. BENCH_history.json)")
	offloadOut := flag.String("offload-out", "", "write the edge/cloud offload benchmark as JSON to this path (e.g. BENCH_offload.json)")
	preset := flag.String("preset", "standard", "dataset/training scale: quick, standard, full")
	seed := flag.Int64("seed", 0, "override the preset's random seed")
	pnEpochs := flag.Int("pn-epochs", 0, "override the preset's PointNet training epochs")
	hawcEpochs := flag.Int("hawc-epochs", 0, "override the preset's HAWC training epochs")
	verbose := flag.Bool("v", true, "print progress")
	flag.Parse()

	var cfg experiments.Config
	switch *preset {
	case "quick":
		cfg = experiments.Quick()
	case "standard":
		cfg = experiments.Standard()
	case "full":
		cfg = experiments.Full()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *pnEpochs > 0 {
		cfg.PointNetEpochs = *pnEpochs
	}
	if *hawcEpochs > 0 {
		cfg.HAWCEpochs = *hawcEpochs
	}

	lab := experiments.NewLab(cfg)
	if *verbose {
		lab.Log = os.Stderr
	}
	// SIGINT/SIGTERM finish the experiment in flight, then skip the rest
	// so artifacts flush and the process exits cleanly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	wanted, err := parseExperiments(*expFlag)
	if err != nil {
		return err
	}
	all := wanted["all"]
	runIt := func(id string) bool { return ctx.Err() == nil && (all || wanted[id]) }

	start := time.Now()
	header := func(title string) {
		fmt.Printf("\n================ %s ================\n", title)
	}

	if runIt("table1") {
		header("Table I — single-person detection accuracy")
		fmt.Print(experiments.FormatTableI(experiments.TableI(lab)))
	}
	if runIt("table2") {
		header("Table II — edge inference time (device model)")
		fmt.Print(experiments.FormatTableII(experiments.TableII(lab)))
	}
	if runIt("table3") {
		header("Table III — up-sampling ablation")
		fmt.Print(experiments.FormatTableIII(experiments.TableIII(lab)))
	}
	if runIt("table4") {
		header("Table IV — clustering ablation")
		fmt.Print(experiments.FormatTableIV(experiments.TableIV(lab)))
	}
	if runIt("table5") {
		header("Table V — crowd counting accuracy & speed")
		fmt.Print(experiments.FormatTableV(experiments.TableV(lab)))
	}
	if runIt("table6") {
		header("Table VI — scalability (synthetic high density)")
		fmt.Print(experiments.FormatTableVI(experiments.TableVI(lab)))
	}
	if runIt("fig4") {
		header("Figure 4 — adaptive ε diagnostics")
		r := experiments.Figure4(lab)
		fmt.Printf("sample capture: %d points, elbow at index %d → ε = %.4f\n",
			len(r.Curve), r.ElbowIndex, r.ElbowEps)
		fmt.Printf("optimal ε over dataset: min %.4f, max %.4f, mode ≈ %.3f\n",
			r.EpsMin, r.EpsMax, r.EpsMode)
		fmt.Println("ε histogram:")
		fmt.Print(experiments.FormatHistogramASCII(r.EpsHistogram, 40))
	}
	if runIt("fig6") {
		header("Figure 6 — Human vs Object coordinate histograms")
		r := experiments.Figure6(lab)
		for axis, name := range []string{"x", "y", "z"} {
			fmt.Printf("--- %s axis, Human ---\n%s", name, experiments.FormatHistogramASCII(r.Human[axis], 30))
			fmt.Printf("--- %s axis, Object ---\n%s", name, experiments.FormatHistogramASCII(r.Object[axis], 30))
		}
	}
	if runIt("fig8") {
		header("Figure 8 — training curves (a) and data efficiency (b)")
		fractions := []float64{1.0, 0.1, 0.01, 0.001}
		r := experiments.Figure8(lab, fractions)
		fmt.Println("(a) test accuracy per epoch:")
		for _, c := range r.Curves {
			fmt.Printf("%-12s", c.Model)
			for _, a := range c.Acc {
				fmt.Printf(" %.3f", a)
			}
			fmt.Println()
		}
		fmt.Println("(b) accuracy vs training fraction:")
		fmt.Printf("%-12s", "fraction")
		for _, f := range fractions {
			fmt.Printf(" %8.3f%%", f*100)
		}
		fmt.Println()
		for _, fr := range r.Fractions {
			fmt.Printf("%-12s", fr.Model)
			for _, a := range fr.Acc {
				fmt.Printf(" %9.3f", a)
			}
			fmt.Println()
		}
	}
	if ctx.Err() == nil && wanted["fig8a"] { // explicit only; "all" runs the combined fig8
		header("Figure 8a — test accuracy per training epoch")
		for _, r := range experiments.Figure8a(lab) {
			fmt.Printf("%-12s", r.Model)
			for _, a := range r.Acc {
				fmt.Printf(" %.3f", a)
			}
			fmt.Println()
		}
	}
	if ctx.Err() == nil && wanted["fig8b"] { // explicit only; "all" runs the combined fig8
		header("Figure 8b — accuracy vs training-data fraction")
		fmt.Printf("%-12s", "fraction")
		for _, f := range experiments.Figure8bFractions {
			fmt.Printf(" %8.3f%%", f*100)
		}
		fmt.Println()
		for _, r := range experiments.Figure8b(lab) {
			fmt.Printf("%-12s", r.Model)
			for _, a := range r.Acc {
				fmt.Printf(" %9.3f", a)
			}
			fmt.Println()
		}
	}
	if runIt("fig9") {
		header("Figure 9 — projection ablation")
		fmt.Printf("%-6s %10s %8s %8s\n", "Proj", "Acc(%)", "MAE", "MSE")
		for _, r := range experiments.Figure9(lab) {
			fmt.Printf("%-6s %10.2f %8.2f %8.2f\n", r.Projection, r.Acc*100, r.MAE, r.MSE)
		}
	}
	if runIt("fig10") {
		header("Figure 10 — pole temperature analysis")
		r := experiments.Figure10()
		fmt.Printf("readings: %d over %d days\n", len(r.Readings), len(r.DailyMax))
		fmt.Printf("pole temperature: max %.2f°C  min %.2f°C  mean %.2f°C\n",
			r.Stats.Max, r.Stats.Min, r.Stats.Mean)
		fmt.Printf("pole−weather delta: %.1f°C at peak, %.1f°C in cool hours\n",
			r.Stats.PeakDelta, r.Stats.CoolDelta)
		fmt.Printf("hours above the Coral's 50°C rating: %.1f\n", r.Stats.HoursAboveRated)
		fmt.Print("daily maxima:")
		for _, m := range r.DailyMax {
			fmt.Printf(" %.1f", m)
		}
		fmt.Println()
	}
	if runIt("fleet") {
		header("Fleet — sharded backend + query API at 10/100/1k/10k poles")
		r := experiments.FleetBench(lab)
		fmt.Print(experiments.FormatFleet(r))
		if err := writeArtifact(*fleetOut, "fleet-out", func(w io.Writer) error { return experiments.WriteFleetJSON(w, r) }); err != nil {
			return err
		}
	}
	if runIt("history") {
		header("History — FTDC-style time-series store: ingest, compression, /api/history p99")
		r := experiments.HistoryBench(lab)
		fmt.Print(experiments.FormatHistory(r))
		if err := writeArtifact(*historyOut, "history-out", func(w io.Writer) error { return experiments.WriteHistoryJSON(w, r) }); err != nil {
			return err
		}
	}
	if runIt("offload") {
		header("Offload — adaptive edge/cloud classify offload over the quantized wire")
		r := experiments.OffloadBench(lab)
		fmt.Print(experiments.FormatOffload(r))
		if err := writeArtifact(*offloadOut, "offload-out", func(w io.Writer) error { return experiments.WriteOffloadJSON(w, r) }); err != nil {
			return err
		}
	}
	if runIt("thermal") {
		header("Thermal — Figure 10 rederived from the history store")
		fmt.Print(experiments.FormatThermal(experiments.ThermalBench(lab)))
	}
	if runIt("fig11") {
		header("Figure 11 — density level visualization")
		for _, r := range experiments.Figure11(lab) {
			fmt.Printf("--- %d pedestrians: %d points ---\n", r.Pedestrians, r.Points)
			fmt.Println("x-offset distribution:")
			fmt.Print(experiments.FormatHistogramASCII(r.OffsetHistX, 30))
		}
	}

	if ctx.Err() != nil {
		fmt.Printf("\ninterrupted after %v — remaining experiments skipped\n",
			time.Since(start).Round(time.Second))
		return nil
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Second))
	return nil
}

// validIDs renders experimentIDs plus "all" for the usage string and the
// unknown-id error.
func validIDs() string { return strings.Join(experimentIDs, ", ") + ", all" }

// parseExperiments resolves the -exp comma list into the set of wanted
// ids, rejecting any id that is neither in experimentIDs nor "all" — a
// typo or a retired id must fail the run, not silently do nothing.
func parseExperiments(list string) (map[string]bool, error) {
	wanted := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id != "all" && !slices.Contains(experimentIDs, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, validIDs())
		}
		wanted[id] = true
	}
	return wanted, nil
}

// writeArtifact writes one experiment's JSON artifact to path, naming
// the flag that asked for it in any error; an empty path (flag unset)
// writes nothing.
func writeArtifact(path, flagName string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
