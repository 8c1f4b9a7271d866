// Command hawcinfer loads a model saved by hawctrain and counts people in
// frames written by hawcgen, printing one line per frame.
//
//	hawcinfer -model model.hwcm -frames frames.hwcc
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/metrics"
	"hawccc/internal/models"
	"hawccc/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hawcinfer:", err)
		os.Exit(1)
	}
}

func run() error {
	modelPath := flag.String("model", "", "model file written by hawctrain (required)")
	framesPath := flag.String("frames", "", "frames file written by hawcgen (required)")
	quantize := flag.Bool("int8", false, "quantize the model before inference (calibrates on the model's object pool)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while counting (empty = off)")
	flag.Parse()

	if *modelPath == "" || *framesPath == "" {
		return fmt.Errorf("-model and -frames are required")
	}
	h, err := models.LoadHAWCFile(*modelPath)
	if err != nil {
		return err
	}
	frames, err := dataset.LoadFrames(*framesPath)
	if err != nil {
		return err
	}
	var clf models.Classifier = h
	if *quantize {
		calib := poolClouds(h)
		if len(calib) > 100 {
			calib = calib[:100]
		}
		q, err := h.Quantize(calib)
		if err != nil {
			return err
		}
		clf = q
	}

	p := counting.New(clf)
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		ms, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		p.Instrument(reg)
		fmt.Fprintln(os.Stderr, "metrics on", ms.URL())
	}
	var pred, truth []float64
	start := time.Now()
	for i, f := range frames {
		r := p.Count(f.Cloud)
		pred = append(pred, float64(r.Count))
		truth = append(truth, float64(f.Count))
		fmt.Printf("frame %3d: %3d people (truth %3d) in %6.2f ms\n",
			i, r.Count, f.Count, float64(r.Timing.Total().Microseconds())/1000)
	}
	fmt.Print("\n", summary(time.Since(start), pred, truth))
	return nil
}

// summary is the closing line: MAE and MSE as every other tool in the
// repository defines them (metrics.MSE is the root of the mean squared
// error, the paper's definition).
func summary(elapsed time.Duration, pred, truth []float64) string {
	return fmt.Sprintf("%d frames in %v — MAE %.2f, MSE %.2f\n", len(pred),
		elapsed.Round(time.Millisecond), metrics.MAE(pred, truth), metrics.MSE(pred, truth))
}

func poolClouds(h *models.HAWC) []dataset.Sample {
	// The saved model's pool doubles as a calibration source; clusters are
	// what the classifier sees at inference time.
	var out []dataset.Sample
	for _, c := range h.PoolClouds() {
		out = append(out, dataset.Sample{Cloud: c})
	}
	return out
}
