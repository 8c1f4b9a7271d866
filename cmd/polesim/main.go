// Command polesim runs a multi-pole smart campus over loopback TCP: it
// trains one HAWC model, starts the campus backend, and launches N pole
// nodes that scan simulated walkways, count on the edge, and stream
// reports and telemetry upstream (the Figure 1 deployment).
//
//	polesim -poles 3 -frames 10 -crowding-limit 8
//
// With -history every count report and telemetry reading is also
// captured into the FTDC-style time-series store (internal/tsdb) and
// served back through /api/history; -history-dir streams sealed chunks
// to rotated segment files (and implies -history), and a later run on the
// same directory starts with the history of the runs before it.
//
// Poles are assigned round-robin to -zones campus zones; the backend's
// query API (served on -api-addr, and mounted at /api/ on the metrics
// listener when -metrics-addr is set) rolls counts up per pole, per
// zone, and campus-wide, with top-K busiest poles.
//
// With -metrics-addr the whole campus exposes one Prometheus /metrics
// endpoint plus net/http/pprof: backend connection, report and alert
// counters (process-wide; a pole's own numbers are /api/poles/{id}),
// each pole's ack and reconnect counters, pipeline stage histograms,
// wire byte counts, and report round-trip times.
// -metrics-dump scrapes that endpoint after the poles finish and writes
// the exposition text to a file, which is how CI asserts the series
// exist without racing a short-lived process.
//
// Each pole streams its frames straight from a per-pole dataset
// generator through the counting pipeline's streaming scheduler — no
// frame set is materialized up front — so memory stays flat however long
// the run is. SIGINT/SIGTERM shut the campus down gracefully: poles drain,
// the snapshot prints, -metrics-dump still writes, and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/pole"
	"hawccc/internal/telemetry"
	"hawccc/internal/tsdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "polesim:", err)
		os.Exit(1)
	}
}

func run() error {
	poles := flag.Int("poles", 3, "number of pole nodes")
	frames := flag.Int("frames", 8, "frames per pole")
	maxPeople := flag.Int("max-people", 6, "maximum pedestrians per frame")
	epochs := flag.Int("epochs", 10, "HAWC training epochs")
	perClass := flag.Int("train", 250, "training samples per class")
	crowding := flag.Int("crowding-limit", 6, "backend crowding alert threshold (0 = off)")
	interval := flag.Duration("interval", 0, "pacing between frames (0 = as fast as possible)")
	seed := flag.Int64("seed", 7, "random seed")
	reconnects := flag.Int("reconnects", 3, "re-dial attempts per pole when the backend connection drops (0 = fail fast)")
	zones := flag.Int("zones", 4, "campus zones poles are assigned to round-robin")
	apiAddr := flag.String("api-addr", "", "serve the campus query API on this address (e.g. 127.0.0.1:8080; empty = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100; empty = off)")
	metricsDump := flag.String("metrics-dump", "", "after the run, scrape /metrics and write the exposition text to this file (implies -metrics-addr 127.0.0.1:0 if unset)")
	history := flag.Bool("history", false, "capture per-pole history in the FTDC-style time-series store and serve /api/history")
	historyDir := flag.String("history-dir", "", "stream sealed history chunks to segment files in this directory (implies -history); a later run on the same directory starts with its history")
	flag.Parse()

	// One mutex serializes every diagnostic line the simulator itself
	// emits; backend and pole internals each serialize their own Logf, but
	// without this their streams could still interleave on stderr.
	var logMu sync.Mutex
	logf := func(f string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(os.Stderr, f+"\n", a...)
	}

	var reg *obs.Registry
	if *metricsAddr == "" && *metricsDump != "" {
		*metricsAddr = "127.0.0.1:0"
	}
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	if *historyDir != "" {
		*history = true
	}
	var histCfg *tsdb.Config
	if *history {
		histCfg = &tsdb.Config{Dir: *historyDir}
	}

	fmt.Printf("training HAWC on %d samples/class (%d epochs)...\n", *perClass, *epochs)
	clf := models.NewHAWC()
	if err := clf.Train(dataset.NewGenerator(*seed).Classification(*perClass),
		models.TrainConfig{Epochs: *epochs, Seed: *seed}); err != nil {
		return err
	}

	srv, err := backend.Listen(backend.Config{
		Addr:          "127.0.0.1:0",
		APIAddr:       *apiAddr,
		CrowdingLimit: *crowding,
		OverheatLimit: 50,
		History:       histCfg,
		Obs:           reg,
		Logf:          func(f string, a ...any) { logf("[backend] "+f, a...) },
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Println("backend listening on", srv.Addr())
	if srv.APIAddr() != "" {
		fmt.Println("query API on http://" + srv.APIAddr() + "/api/campus")
	}

	var ms *obs.MetricsServer
	if *metricsAddr != "" {
		// The query API rides the metrics listener too, so one diagnostics
		// port serves /metrics, /debug/pprof, and /api/....
		ms, err = obs.ServeMounts(*metricsAddr, reg, map[string]http.Handler{"/api/": srv.APIHandler()})
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Println("metrics on", ms.URL())
	}

	// SIGINT/SIGTERM cancel every pole's Run: streams drain, connections
	// close, and the run falls through to the snapshot and metrics dump.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if err := runCampus(ctx, srv, reg, clf, campusConfig{
		poles: *poles, frames: *frames, maxPeople: *maxPeople,
		interval: *interval, seed: *seed, reconnects: *reconnects,
		zones: *zones,
	}, logf); err != nil {
		return err
	}

	printSnapshot(srv)
	printHistory(srv)

	if *metricsDump != "" {
		if err := dumpMetrics(ms.URL(), *metricsDump); err != nil {
			return err
		}
		fmt.Println("wrote", *metricsDump)
	}
	return nil
}

type campusConfig struct {
	poles, frames, maxPeople, reconnects, zones int
	interval                                    time.Duration
	seed                                        int64
}

// runCampus launches N pole nodes that scan, count on the edge with the
// already-trained campus model, and report upstream.
func runCampus(ctx context.Context, srv *backend.Server, reg *obs.Registry, clf *models.HAWC, cfg campusConfig, logf func(string, ...any)) error {
	readings := telemetry.Simulate(telemetry.SummerConfig())
	// Every pole runs the same trained weights, so they all advertise one
	// classifier version; compute the hash once rather than per pole (it
	// re-serializes the weights).
	ver := clf.ModelVersion()
	start := time.Now()
	var wg sync.WaitGroup
	for id := 1; id <= cfg.poles; id++ {
		// Each pole owns a seeded generator and streams frames from it on
		// demand — the streaming scheduler takes a frame only when a worker
		// is free to count it, so no pole ever materializes its whole frame
		// set.
		src := dataset.NewGenerator(cfg.seed+int64(id)).CrowdSource(cfg.frames, 1, cfg.maxPeople, 2)
		// All poles share the registry: pipeline stage histograms aggregate
		// campus-wide, while pole-level series carry a pole="<id>" label.
		node, err := pole.Dial(pole.Config{
			PoleID:        uint32(id),
			Location:      fmt.Sprintf("walkway-%d", id),
			Zone:          zoneName(id, cfg.zones),
			BackendAddr:   srv.Addr(),
			Pipeline:      counting.New(clf).Instrument(reg),
			Source:        src,
			FrameInterval: cfg.interval,
			Telemetry:     telemetryWindow(readings, id),
			ModelVersion:  ver,
			MaxReconnects: cfg.reconnects,
			Obs:           reg,
			Logf:          func(f string, a ...any) { logf("[pole] "+f, a...) },
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n, err := node.Run(ctx)
			if err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "pole %d: %v\n", id, err)
			}
			fmt.Printf("pole %d done: %d frames, %d alerts received\n", id, n, node.AlertsReceived())
		}(id)
	}
	wg.Wait()

	if ctx.Err() != nil {
		fmt.Printf("\ninterrupted after %v — campus shut down gracefully\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("\nall poles finished in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// zoneName assigns pole id to one of zones campus zones round-robin
// (a non-positive count falls back to the -zones default).
func zoneName(id, zones int) string {
	if zones <= 0 {
		zones = 4
	}
	return fmt.Sprintf("zone-%d", id%zones)
}

// telemetryWindow is the slice of the simulated summer a pole replays:
// each id starts 400 readings after the previous one, wrapping so any
// number of poles gets a non-empty window.
func telemetryWindow(readings []telemetry.Reading, id int) []telemetry.Reading {
	return readings[(400*id)%len(readings):]
}

// printSnapshot forces a fresh campus snapshot and prints the per-pole
// (small fleets), per-zone, and campus rollups.
func printSnapshot(srv *backend.Server) {
	snap := srv.RebuildSnapshot()
	fmt.Println("campus snapshot:")
	if len(snap.Poles) <= 16 {
		for _, p := range snap.Poles {
			fmt.Printf("  pole %d (%s, %s): reports %d, last %d, peak %d, total %d, maxTemp %.1f°C\n",
				p.PoleID, p.Location, p.Zone, p.Reports, p.LastCount, p.PeakCount, p.TotalCount, p.MaxTemp)
		}
	}
	for _, z := range snap.Zones {
		fmt.Printf("  zone %s: %d poles, count %d, reports %d, alerts %d\n",
			z.Zone, z.Poles, z.Count, z.Reports, z.Alerts)
	}
	fmt.Printf("campus: %d poles, count %d, reports %d, alerts %d (snapshot seq %d)\n",
		snap.Campus.Poles, snap.Campus.Count, snap.Campus.Reports, snap.Campus.Alerts, snap.Seq)
}

// printHistory summarizes the history store when -history enabled it:
// what this run captured, and what it read back from -history-dir.
func printHistory(srv *backend.Server) {
	st := srv.History()
	if st == nil {
		return
	}
	stats := st.Stats()
	fmt.Printf("history: %d series, %d samples captured, %d loaded from disk, %.2f bytes/sample sealed (%.1fx vs 16-byte rows)\n",
		stats.Series, stats.Appended, stats.Loaded, stats.BytesPerSample, stats.CompressionVs16)
}

// dumpMetrics scrapes the simulator's own /metrics endpoint and writes the
// exposition body to path, exactly as an external Prometheus would see it.
func dumpMetrics(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("metrics-dump: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("metrics-dump: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics-dump: scrape returned %s", resp.Status)
	}
	return os.WriteFile(path, body, 0o644)
}
