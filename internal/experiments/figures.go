package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hawccc/internal/cluster"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/models"
	"hawccc/internal/projection"
	"hawccc/internal/telemetry"
)

// Figure4Result reproduces Figure 4: (a) the sorted k-NN distance curve of
// one training capture with its elbow, and (b) the distribution of optimal
// ε across the training set.
type Figure4Result struct {
	// Curve is the ascending 4-NN distance curve of the sample capture.
	Curve []float64
	// ElbowIndex and ElbowEps locate the knee on Curve.
	ElbowIndex int
	ElbowEps   float64
	// EpsHistogram bins the per-capture optimal ε over the training set.
	EpsHistogram geom.Histogram
	// EpsMin, EpsMax, EpsMode summarize the observed range (the paper
	// reports 0.04 … 9.06 with 0.08 predominating).
	EpsMin, EpsMax, EpsMode float64
}

// Figure4 computes the adaptive-clustering diagnostics over the counting
// frames (each ingested frame is one "capture").
func Figure4(l *Lab) Figure4Result {
	frames := l.Frames()
	cfg := cluster.DefaultAdaptiveConfig()
	var res Figure4Result

	var allEps []float64
	for i, f := range frames {
		cloud := ingest(f.Cloud)
		if len(cloud) < cfg.K+2 {
			continue
		}
		eps := cluster.OptimalEpsilon(cloud, cfg)
		allEps = append(allEps, eps)
		if i == 0 {
			res.Curve = cluster.KDistanceCurve(nil, cloud, cfg.K)
			res.ElbowEps = eps
			for j, d := range res.Curve {
				if d >= eps {
					res.ElbowIndex = j
					break
				}
			}
		}
	}
	sort.Float64s(allEps)
	if len(allEps) > 0 {
		res.EpsMin, res.EpsMax = allEps[0], allEps[len(allEps)-1]
		res.EpsHistogram = geom.NewHistogram(allEps, 0, res.EpsMax*1.01, 20)
		// Mode = densest bin center.
		best := 0
		for i, c := range res.EpsHistogram.Counts {
			if c > res.EpsHistogram.Counts[best] {
				best = i
			}
		}
		res.EpsMode = res.EpsHistogram.Min + (float64(best)+0.5)*res.EpsHistogram.BinWidth()
	}
	return res
}

// Figure6Result reproduces Figure 6: per-axis coordinate histograms of the
// Human vs Object training data, exhibiting the distinct distributions
// that justify noise-controlled up-sampling.
type Figure6Result struct {
	Human, Object [3]geom.Histogram // x, y, z
}

// Figure6 computes the histograms over the classification training set.
func Figure6(l *Lab) Figure6Result {
	var human, object geom.Cloud
	for _, s := range l.Split().Train {
		if s.Human {
			human = append(human, s.Cloud...)
		} else {
			object = append(object, s.Cloud...)
		}
	}
	var res Figure6Result
	ranges := [3][2]float64{{12, 35}, {-2.5, 2.5}, {-3, 0}}
	for axis := 0; axis < 3; axis++ {
		res.Human[axis] = geom.NewHistogram(geom.AxisValues(human, axis), ranges[axis][0], ranges[axis][1], 30)
		res.Object[axis] = geom.NewHistogram(geom.AxisValues(object, axis), ranges[axis][0], ranges[axis][1], 30)
	}
	return res
}

// Figure8aResult is the per-epoch test-accuracy curve of one model.
type Figure8aResult struct {
	Model string
	Acc   []float64 // Acc[e] = test accuracy after epoch e
}

// Figure8a reads the training curves of HAWC, PointNet, and the
// AutoEncoder: the lab records each model's per-epoch accuracy on a
// bounded test subset during its one training run (same data, seed, and
// budget a dedicated retraining would use), so nothing trains twice.
func Figure8a(l *Lab) []Figure8aResult {
	l.HAWC()
	l.PointNet()
	l.AutoEncoder()
	return []Figure8aResult{
		{Model: "HAWC", Acc: l.hawcAcc},
		{Model: "PointNet", Acc: l.pnAcc},
		{Model: "AutoEncoder", Acc: l.aeAcc},
	}
}

// Figure8bResult is one model's accuracy across training-set fractions.
type Figure8bResult struct {
	Model     string
	Fractions []float64
	Acc       []float64
}

// Figure8bFractions are the training-data fractions evaluated (the paper
// sweeps 100% down to 0.1%).
var Figure8bFractions = []float64{1.0, 0.1, 0.01, 0.001}

// Figure8b measures robustness to limited training data: each model is
// retrained on shrinking class-balanced subsets. The 100% fraction is the
// lab's own model (same data, seed and budget), so that column is Table
// I's FP32 accuracy and nothing trains twice.
func Figure8b(l *Lab) []Figure8bResult {
	split := l.Split()
	rng := rand.New(rand.NewSource(l.Cfg.Seed + 7))
	type trainable interface {
		models.Classifier
		Train([]dataset.Sample, models.TrainConfig) error
	}
	specs := []struct {
		model  string
		lab    func() models.Classifier
		fresh  func() trainable
		epochs int
		seed   int64
	}{
		{"HAWC", func() models.Classifier { return l.HAWC() },
			func() trainable { return models.NewHAWC() }, l.Cfg.HAWCEpochs, l.Cfg.Seed + 3},
		{"PointNet", func() models.Classifier { return l.PointNet() },
			func() trainable { return models.NewPointNet() }, l.Cfg.PointNetEpochs, l.Cfg.Seed + 4},
		{"AutoEncoder", func() models.Classifier { return l.AutoEncoder() },
			func() trainable { return models.NewAutoEncoder() }, l.Cfg.AEEpochs, l.Cfg.Seed + 5},
	}

	var out []Figure8bResult
	for _, sp := range specs {
		r := Figure8bResult{Model: sp.model, Fractions: Figure8bFractions}
		for _, frac := range Figure8bFractions {
			l.logf("Figure 8b: %s at %.1f%% of training data...", sp.model, frac*100)
			// Subset draws nothing from rng at 100%.
			sub := dataset.Subset(rng, split.Train, frac)
			var clf models.Classifier
			if frac >= 1 {
				clf = sp.lab()
			} else {
				m := sp.fresh()
				mustTrain(m.Train(sub, models.TrainConfig{Epochs: sp.epochs, Seed: sp.seed}))
				clf = m
			}
			r.Acc = append(r.Acc, models.Evaluate(clf, split.Test).Accuracy())
		}
		out = append(out, r)
	}
	return out
}

// Figure9Result is one projection method's detection and counting
// performance.
type Figure9Result struct {
	Projection string
	Acc        float64
	MAE, MSE   float64
}

// Figure9 reproduces the projection ablation: HAWC retrained with each of
// HAP, TV, BEV, RV, DA; detection accuracy on the test split and counting
// MAE/MSE through the full HAWC-CC pipeline.
func Figure9(l *Lab) []Figure9Result {
	split := l.Split()
	frames := l.Frames()
	var out []Figure9Result
	for _, name := range []string{"HAP", "TV", "BEV", "RV", "DA"} {
		l.logf("Figure 9: training HAWC with %s projection...", name)
		proj, ok := projection.ByName(name)
		if !ok {
			panic("experiments: unknown projection " + name)
		}
		var clf *models.HAWC
		if name == "HAP" {
			clf = l.HAWC() // reuse the lab's trained model
		} else {
			clf = models.NewHAWC()
			clf.Projector = proj
			mustTrain(clf.Train(split.Train, models.TrainConfig{
				Epochs: l.Cfg.HAWCEpochs, Seed: l.Cfg.Seed + 3,
			}))
		}
		acc := models.Evaluate(clf, split.Test).Accuracy()
		p := counting.New(clf)
		ev, err := counting.Evaluate(p, frames)
		mustTrain(err)
		out = append(out, Figure9Result{Projection: name, Acc: acc, MAE: ev.MAE, MSE: ev.MSE})
	}
	return out
}

// Figure10Result reproduces the pole-temperature analysis.
type Figure10Result struct {
	Readings []telemetry.Reading
	Stats    telemetry.Stats
	DailyMax []float64
}

// Figure10 simulates the summer monitoring window and summarizes it the
// way Section VII-D does.
func Figure10() Figure10Result {
	readings := telemetry.Simulate(telemetry.SummerConfig())
	return Figure10Result{
		Readings: readings,
		Stats:    telemetry.Summarize(readings, 50),
		DailyMax: telemetry.DailyMax(readings),
	}
}

// Figure11Result describes the point clouds of one density level.
type Figure11Result struct {
	Pedestrians int
	Points      int
	// OffsetHistX/Y bin the per-person x/y offsets from the area center.
	OffsetHistX, OffsetHistY geom.Histogram
}

// Figure11 visualizes (statistically) the synthetic density levels of the
// scalability study: cloud sizes and offset distributions for 20, 100,
// and 250 pedestrians.
func Figure11(l *Lab) []Figure11Result {
	humanPool, objectPool := l.pools()
	rng := rand.New(rand.NewSource(l.Cfg.Seed + 8))
	var out []Figure11Result
	for _, n := range []int{20, 100, 250} {
		f := dataset.HighDensityFrame(rng, humanPool, objectPool, n)
		const centerX = 23.5
		xs := geom.AxisValues(f.Cloud, 0)
		for i := range xs {
			xs[i] -= centerX
		}
		ys := geom.AxisValues(f.Cloud, 1)
		out = append(out, Figure11Result{
			Pedestrians: n,
			Points:      len(f.Cloud),
			OffsetHistX: geom.NewHistogram(xs, -6, 6, 24),
			OffsetHistY: geom.NewHistogram(ys, -6, 6, 24),
		})
	}
	return out
}

// FormatHistogramASCII renders a histogram as a horizontal bar chart for
// terminal reports.
func FormatHistogramASCII(h geom.Histogram, width int) string {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*h.BinWidth()
		bar := strings.Repeat("#", c*width/maxC)
		fmt.Fprintf(&b, "%8.2f | %-*s %d\n", lo, width, bar, c)
	}
	return b.String()
}

func ingest(cloud geom.Cloud) geom.Cloud {
	return ground.Ingest(cloud, ground.DefaultROI())
}
