// Command hawcbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	hawcbench -exp table1,table5 -preset standard
//	hawcbench -exp all -preset quick
//
// Experiments: the ids in experimentIDs below (hawcbench -h prints them),
// or "all"; an id outside that list exits 1.
// Presets: quick, standard, full.
//
// That is all it does: nothing here loads a backend or reports a rate
// or a percentile — the system benchmark is bench/ (bash bench/run.sh).
//
// SIGINT/SIGTERM stop the run between experiments: the current
// experiment finishes, its output is flushed, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
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
	"fig4", "fig6", "fig8", "fig9", "fig10", "fig11",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hawcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids ("+validIDs()+")")
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
	// so its output flushes and the process exits cleanly.
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
		fmt.Println("(a) test accuracy per epoch:")
		for _, c := range experiments.Figure8a(lab) {
			fmt.Printf("%-12s", c.Model)
			for _, a := range c.Acc {
				fmt.Printf(" %.3f", a)
			}
			fmt.Println()
		}
		fmt.Println("(b) accuracy vs training fraction:")
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
