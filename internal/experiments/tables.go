package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/device"
	"hawccc/internal/ground"
	"hawccc/internal/metrics"
	"hawccc/internal/models"
	"hawccc/internal/tensor"
	"hawccc/internal/upsample"
)

// TableIRow is one model's single-person detection accuracy (paper
// Table I).
type TableIRow struct {
	Model        string
	Acc, F1      float64
	Prec, Recall float64
	// Int8Acc is negative when the model has no quantized form (OC-SVM).
	Int8Acc float64
	HasInt8 bool
}

// TableI reproduces the single-person detection comparison: accuracy, F1,
// precision, recall in FP32 and test accuracy in int8 for the four
// classifiers.
func TableI(l *Lab) []TableIRow {
	test := l.Split().Test
	row := func(name string, fp models.Classifier, q models.Classifier) TableIRow {
		conf := models.Evaluate(fp, test)
		r := TableIRow{
			Model: name, Acc: conf.Accuracy(), F1: conf.F1(),
			Prec: conf.Precision(), Recall: conf.Recall(),
		}
		if q != nil {
			r.HasInt8 = true
			r.Int8Acc = models.Evaluate(q, test).Accuracy()
		}
		return r
	}
	return []TableIRow{
		row("OC-SVM", l.OCSVM(), nil),
		row("AutoEncoder", l.AutoEncoder(), l.AutoEncoderInt8()),
		row("PointNet", l.PointNet(), l.PointNetInt8()),
		row("HAWC (Ours)", l.HAWC(), l.HAWCInt8()),
	}
}

// FormatTableI renders rows like the paper's Table I.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s %6s %6s %6s %10s %10s\n",
		"Model", "Acc(%)", "F1", "Prec", "Rec", "Int8(%)", "Diff(%)")
	for _, r := range rows {
		int8s, diffs := "-", "-"
		if r.HasInt8 {
			int8s = fmt.Sprintf("%.2f", r.Int8Acc*100)
			diffs = fmt.Sprintf("%+.2f", (r.Int8Acc-r.Acc)*100)
		}
		fmt.Fprintf(&b, "%-14s %9.2f %6.2f %6.2f %6.2f %10s %10s\n",
			r.Model, r.Acc*100, r.F1, r.Prec, r.Recall, int8s, diffs)
	}
	return b.String()
}

// TableIIRow is one (device, model) inference-latency cell pair.
type TableIIRow struct {
	Device, Model string
	FP32, Int8    time.Duration
	HasInt8       bool
	Speedup       float64
}

// TableII reproduces the edge inference-time comparison using the device
// cost models over each trained model's real op graph (see DESIGN.md for
// the hardware substitution).
func TableII(l *Lab) []TableIIRow {
	hawc := l.HAWC()
	pn := l.PointNet()
	ae := l.AutoEncoder()
	oc := l.OCSVM()

	// Example inputs sized from the trained models.
	d := upsample.Side(hawc.Target())
	hawcX := tensor.New(1, d, d, hawc.Projector.Channels())
	pnX := tensor.New(pn.Target(), 3)
	aeX := tensor.New(1, oc.FeatureDim())

	hawcFP := device.FromSequential(hawc.Network(), hawcX)
	hawcQ8 := device.FromQuant(l.HAWCInt8().QuantNetwork(), hawcX)
	pnFP := device.FromSequential(pn.Network(), pnX)
	pnQ8 := device.FromQuant(l.PointNetInt8().QuantNetwork(), pnX)
	aeFP := device.FromSequential(ae.Network(), aeX)
	aeQ8 := device.FromQuant(l.AutoEncoderInt8().QuantNetwork(), aeX)
	svmG := device.SVMGraph(oc.NumSupportVectors(), oc.FeatureDim())

	var rows []TableIIRow
	for _, dev := range []device.Profile{device.JetsonNano, device.CoralDevBoard} {
		add := func(model string, fp, q8 time.Duration, hasInt8 bool) {
			r := TableIIRow{Device: dev.Name, Model: model, FP32: fp, Int8: q8, HasInt8: hasInt8}
			if hasInt8 && q8 > 0 {
				r.Speedup = float64(fp) / float64(q8)
			}
			rows = append(rows, r)
		}
		add("OC-SVM", dev.EstimateFP32(svmG), 0, false)
		add("AutoEncoder", dev.EstimateFP32(aeFP), dev.EstimateInt8(aeQ8), true)
		add("PointNet", dev.EstimateFP32(pnFP), dev.EstimateInt8(pnQ8), true)
		add("HAWC (Ours)", dev.EstimateFP32(hawcFP), dev.EstimateInt8(hawcQ8), true)
	}
	return rows
}

// FormatTableII renders rows like the paper's Table II.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-14s %12s %12s %9s\n", "Edge Device", "Model", "FP32 (ms)", "Int8 (ms)", "Speedup")
	for _, r := range rows {
		int8s, spd := "-", "-"
		if r.HasInt8 {
			int8s = fmt.Sprintf("%.2f", ms(r.Int8))
			spd = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "%-16s %-14s %12.2f %12s %9s\n", r.Device, r.Model, ms(r.FP32), int8s, spd)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TableIIIRow is one up-sampling method's accuracy.
type TableIIIRow struct {
	Method string
	Acc    float64
}

// TableIII reproduces the object-data-sampling vs Gaussian-sampling
// ablation (σ ∈ {3, 5, 7}): HAWC is retrained with each padding method.
func TableIII(l *Lab) []TableIIIRow {
	split := l.Split()
	rows := []TableIIIRow{{
		Method: "Object data sampling",
		Acc:    models.Evaluate(l.HAWC(), split.Test).Accuracy(),
	}}
	for _, sigma := range []float64{3, 5, 7} {
		l.logf("training HAWC with Gaussian σ=%.0f padding...", sigma)
		h := models.NewHAWC()
		h.GaussianSigma = sigma
		mustTrain(h.Train(split.Train, models.TrainConfig{
			Epochs: l.Cfg.HAWCEpochs, Seed: l.Cfg.Seed + 3,
		}))
		rows = append(rows, TableIIIRow{
			Method: fmt.Sprintf("Gaussian σ=%.0f", sigma),
			Acc:    models.Evaluate(h, split.Test).Accuracy(),
		})
	}
	return rows
}

// FormatTableIII renders rows like the paper's Table III.
func FormatTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	base := rows[0].Acc
	fmt.Fprintf(&b, "%-24s %12s %10s\n", "Sampling Method", "Test Acc(%)", "Diff(%)")
	for i, r := range rows {
		diff := "0"
		if i > 0 {
			diff = fmt.Sprintf("%+.2f", (r.Acc-base)*100)
		}
		fmt.Fprintf(&b, "%-24s %12.2f %10s\n", r.Method, r.Acc*100, diff)
	}
	return b.String()
}

// TableIVRow is one clustering method's counting accuracy.
type TableIVRow struct {
	Method   string
	MAE, MSE float64
}

// TableIV reproduces the clustering ablation: HAWC-CC with fixed-ε DBSCAN
// (ε ∈ {0.1 … 0.9}), hierarchical clustering, and the proposed adaptive
// clustering, all sharing the same trained HAWC classifier.
func TableIV(l *Lab) []TableIVRow {
	frames := l.Frames()
	classifier := l.HAWC()
	run := func(name string, c counting.ScratchClusterer) TableIVRow {
		l.logf("Table IV: %s...", name)
		p := counting.New(classifier)
		p.Clusterer = c
		ev, err := counting.Evaluate(p, frames)
		mustTrain(err)
		return TableIVRow{Method: name, MAE: ev.MAE, MSE: ev.MSE}
	}
	var rows []TableIVRow
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		rows = append(rows, run(fmt.Sprintf("Fixed-ε %.1f", eps), counting.FixedEpsClusterer{Eps: eps}))
	}
	rows = append(rows, run("Hierarchical", counting.HierarchicalClusterer{}))
	rows = append(rows, run("Adaptive (Ours)", counting.NewAdaptiveClusterer()))
	return rows
}

// FormatTableIV renders rows like the paper's Table IV.
func FormatTableIV(rows []TableIVRow) string {
	var b strings.Builder
	adaptive := rows[len(rows)-1]
	fmt.Fprintf(&b, "%-18s %8s %8s %14s\n", "Method", "MAE", "MSE", "Adaptive Δ")
	for i, r := range rows {
		delta := "-"
		if i < len(rows)-1 && r.MAE > 0 {
			delta = fmt.Sprintf("%+.1f%% MAE", (adaptive.MAE-r.MAE)/r.MAE*100)
		}
		fmt.Fprintf(&b, "%-18s %8.2f %8.2f %14s\n", r.Method, r.MAE, r.MSE, delta)
	}
	return b.String()
}

// TableVRow is one counting framework's accuracy and speed.
type TableVRow struct {
	Framework          string
	MAE, MSE           float64
	Int8MAE, Int8MSE   float64
	HasInt8            bool
	Speed, SpeedStd    time.Duration
	JetsonModeledSpeed time.Duration
}

// TableV reproduces the end-to-end crowd-counting comparison: MAE/MSE of
// the four frameworks in FP32 and int8, plus per-frame processing speed
// (host wall clock; the Jetson-modeled classifier latency is reported
// alongside for the Table II cross-reference).
func TableV(l *Lab) []TableVRow {
	frames := l.Frames()
	run := func(name string, fp models.Classifier, q models.Classifier) TableVRow {
		l.logf("Table V: %s...", name)
		p := counting.New(fp)
		ev, err := counting.Evaluate(p, frames)
		mustTrain(err)
		r := TableVRow{
			Framework: name, MAE: ev.MAE, MSE: ev.MSE,
			Speed: ev.MeanLatency, SpeedStd: ev.StdLatency,
		}
		if q != nil {
			pq := counting.New(q)
			evq, err := counting.Evaluate(pq, frames)
			mustTrain(err)
			r.HasInt8 = true
			r.Int8MAE, r.Int8MSE = evq.MAE, evq.MSE
		}
		return r
	}
	return []TableVRow{
		run("OC-SVM-CC", l.OCSVM(), nil),
		run("AutoEncoder-CC", l.AutoEncoder(), l.AutoEncoderInt8()),
		run("PointNet-CC", l.PointNet(), l.PointNetInt8()),
		run("HAWC-CC (Ours)", l.HAWC(), l.HAWCInt8()),
	}
}

// FormatTableV renders rows like the paper's Table V.
func FormatTableV(rows []TableVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %9s %9s %9s %16s\n",
		"Framework", "MAE", "MSE", "MAE(i8)", "MSE(i8)", "ΔMAE", "ΔMSE", "Speed (ms)")
	for _, r := range rows {
		i8m, i8s, dm, ds := "-", "-", "-", "-"
		if r.HasInt8 {
			i8m = fmt.Sprintf("%.2f", r.Int8MAE)
			i8s = fmt.Sprintf("%.2f", r.Int8MSE)
			dm = fmt.Sprintf("%+.2f", r.Int8MAE-r.MAE)
			ds = fmt.Sprintf("%+.2f", r.Int8MSE-r.MSE)
		}
		fmt.Fprintf(&b, "%-16s %8.2f %8.2f %9s %9s %9s %9s %7.2f ± %5.2f\n",
			r.Framework, r.MAE, r.MSE, i8m, i8s, dm, ds, ms(r.Speed), ms(r.SpeedStd))
	}
	return b.String()
}

// TableVIRow is one density level's scalability result.
type TableVIRow struct {
	Pedestrians        int
	Density            string
	MAE, MAEStd        float64
	MSE, MSEStd        float64
	TotalK             float64 // ground truth total, thousands
	ActualK, ActualStd float64 // predicted total, thousands
}

// TableVI reproduces the scalability evaluation: synthetic high-density
// frames built by offsetting single-person clouds (paper Section VII-D),
// counted by HAWC-CC, for 20 → 250 pedestrians, averaged over runs.
func TableVI(l *Lab) []TableVIRow {
	classifier := l.HAWC()
	humanPool, objectPool := l.pools()

	densityOf := func(n int) string {
		// Fruin levels over the simulated 100 m² area.
		switch {
		case n < 100:
			return "Low"
		case n < 200:
			return "Moderate"
		default:
			return "High"
		}
	}

	p := counting.New(classifier)
	p.ROI = scalabilityROI()
	var rows []TableVIRow
	for _, n := range []int{20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200, 250} {
		l.logf("Table VI: %d pedestrians...", n)
		var maes, mses, totals []float64
		for run := 0; run < l.Cfg.ScalabilityRuns; run++ {
			rng := rand.New(rand.NewSource(l.Cfg.Seed + int64(1000*n+run)))
			frames := make([]dataset.Frame, l.Cfg.ScalabilityFrames)
			for f := range frames {
				frames[f] = dataset.HighDensityFrame(rng, humanPool, objectPool, n)
			}
			ev, err := counting.Evaluate(p, frames)
			mustTrain(err)
			var total float64
			for _, pred := range ev.Predicted {
				total += pred
			}
			maes = append(maes, ev.MAE)
			mses = append(mses, metrics.MeanSquaredError(ev.Predicted, ev.Truth))
			totals = append(totals, total/1000)
		}
		maeM, maeS := metrics.MeanStd(maes)
		mseM, mseS := metrics.MeanStd(mses)
		totM, totS := metrics.MeanStd(totals)
		rows = append(rows, TableVIRow{
			Pedestrians: n,
			Density:     densityOf(n),
			MAE:         maeM, MAEStd: maeS,
			MSE: mseM, MSEStd: mseS,
			TotalK:  float64(n) * float64(l.Cfg.ScalabilityFrames) / 1000,
			ActualK: totM, ActualStd: totS,
		})
	}
	return rows
}

// scalabilityROI widens the ingest ROI to the scalability scenario's
// footprint (Section VII-D: synthetic crowd data spans 7 m to 40 m from
// the sensor and ±5 m laterally, beyond the deployment walkway).
func scalabilityROI() ground.ROI {
	return ground.ROI{XMin: 7, XMax: 40, YMin: -6, YMax: 6, ZMin: -3, ZMax: 0}
}

// FormatTableVI renders rows like the paper's Table VI.
func FormatTableVI(rows []TableVIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %16s %18s %10s %18s\n",
		"#Pedestrians", "Density", "MAE", "MSE", "Total(K)", "Actual(K)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %10s %8.3f ± %5.3f %9.3f ± %6.3f %10.3f %9.3f ± %6.3f\n",
			r.Pedestrians, r.Density, r.MAE, r.MAEStd, r.MSE, r.MSEStd, r.TotalK, r.ActualK, r.ActualStd)
	}
	return b.String()
}
