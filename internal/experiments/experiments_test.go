package experiments

import (
	"slices"
	"strings"
	"testing"

	"hawccc/internal/models"
)

// sharedLab is trained once for the whole test package (Quick config).
var sharedLab = NewLab(Quick())

func TestTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("trains all four classifiers")
	}
	rows := TableI(sharedLab)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	hawc := byName["HAWC (Ours)"]
	ocsvm := byName["OC-SVM"]
	if hawc.Acc <= ocsvm.Acc {
		t.Errorf("HAWC (%.3f) must beat OC-SVM (%.3f)", hawc.Acc, ocsvm.Acc)
	}
	if hawc.Acc < 0.65 {
		t.Errorf("HAWC quick accuracy %.3f unexpectedly low", hawc.Acc)
	}
	if hawc.Acc-ocsvm.Acc < 0.1 {
		t.Errorf("HAWC (%.3f) should clearly exceed OC-SVM (%.3f)", hawc.Acc, ocsvm.Acc)
	}
	if ocsvm.HasInt8 {
		t.Error("OC-SVM must not have an int8 variant")
	}
	if !hawc.HasInt8 || hawc.Int8Acc <= 0 {
		t.Error("HAWC int8 missing")
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "HAWC") || !strings.Contains(out, "OC-SVM") {
		t.Error("format output incomplete")
	}
}

func TestTableII(t *testing.T) {
	rows := TableII(sharedLab)
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	cell := map[string]TableIIRow{}
	for _, r := range rows {
		cell[r.Device+"/"+r.Model] = r
	}
	// Structural claims of the paper's Table II:
	// PointNet is the slowest model on both devices in FP32.
	for _, dev := range []string{"Jetson Nano", "Coral Dev Board"} {
		pn := cell[dev+"/PointNet"]
		hawc := cell[dev+"/HAWC (Ours)"]
		ae := cell[dev+"/AutoEncoder"]
		if pn.FP32 <= hawc.FP32 || pn.FP32 <= ae.FP32 {
			t.Errorf("%s: PointNet FP32 (%v) must be slowest (HAWC %v, AE %v)",
				dev, pn.FP32, hawc.FP32, ae.FP32)
		}
	}
	// The Coral's int8 AutoEncoder regresses vs its FP32 (FC-heavy on TPU).
	ae := cell["Coral Dev Board/AutoEncoder"]
	if ae.Int8 <= ae.FP32 {
		t.Errorf("Coral AE int8 (%v) should regress vs FP32 (%v)", ae.Int8, ae.FP32)
	}
	// HAWC accelerates under int8 on both devices.
	for _, dev := range []string{"Jetson Nano", "Coral Dev Board"} {
		h := cell[dev+"/HAWC (Ours)"]
		if h.Int8 >= h.FP32 {
			t.Errorf("%s: HAWC int8 (%v) should beat FP32 (%v)", dev, h.Int8, h.FP32)
		}
	}
	if s := FormatTableII(rows); !strings.Contains(s, "Coral") {
		t.Error("format output incomplete")
	}
}

func TestTableIV(t *testing.T) {
	rows := TableIV(sharedLab)
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	adaptive := rows[len(rows)-1]
	if adaptive.Method != "Adaptive (Ours)" {
		t.Fatalf("last row = %q", adaptive.Method)
	}
	// Hierarchical must drastically over-count (Table IV's pathology).
	hier := rows[len(rows)-2]
	if hier.MAE <= adaptive.MAE {
		t.Errorf("hierarchical MAE (%.2f) should exceed adaptive (%.2f)", hier.MAE, adaptive.MAE)
	}
	// Adaptive must beat the worst fixed ε clearly.
	worstFixed := 0.0
	for _, r := range rows[:5] {
		if r.MAE > worstFixed {
			worstFixed = r.MAE
		}
	}
	if adaptive.MAE >= worstFixed {
		t.Errorf("adaptive MAE (%.2f) should beat the worst fixed ε (%.2f)", adaptive.MAE, worstFixed)
	}
	if s := FormatTableIV(rows); !strings.Contains(s, "Adaptive") {
		t.Error("format output incomplete")
	}
}

func TestTableV(t *testing.T) {
	rows := TableV(sharedLab)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]TableVRow{}
	for _, r := range rows {
		byName[r.Framework] = r
	}
	hawc := byName["HAWC-CC (Ours)"]
	ocsvm := byName["OC-SVM-CC"]
	// At quick scale the margin can collapse to a tie on 30 frames; HAWC-CC
	// must never be worse.
	if hawc.MAE > ocsvm.MAE {
		t.Errorf("HAWC-CC MAE (%.2f) must not exceed OC-SVM-CC (%.2f)", hawc.MAE, ocsvm.MAE)
	}
	if hawc.MAE > 2.0 {
		t.Errorf("HAWC-CC quick MAE %.2f unexpectedly high", hawc.MAE)
	}
	if hawc.MSE < hawc.MAE-1e-9 {
		t.Error("MSE must be ≥ MAE")
	}
	if !hawc.HasInt8 || ocsvm.HasInt8 {
		t.Error("int8 variants wrong")
	}
	if hawc.Speed <= 0 {
		t.Error("no speed measured")
	}
	if s := FormatTableV(rows); !strings.Contains(s, "HAWC-CC") {
		t.Error("format output incomplete")
	}
}

func TestFigure4(t *testing.T) {
	r := Figure4(sharedLab)
	if len(r.Curve) == 0 {
		t.Fatal("empty curve")
	}
	// Curve is sorted ascending.
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i] < r.Curve[i-1] {
			t.Fatal("curve not sorted")
		}
	}
	if r.ElbowEps <= 0 {
		t.Errorf("elbow ε = %v", r.ElbowEps)
	}
	if r.EpsMin > r.EpsMode || r.EpsMode > r.EpsMax {
		t.Errorf("ε summary inconsistent: min %.3f mode %.3f max %.3f", r.EpsMin, r.EpsMode, r.EpsMax)
	}
	if r.EpsHistogram.Total() == 0 {
		t.Error("empty ε histogram")
	}
}

func TestFigure6(t *testing.T) {
	r := Figure6(sharedLab)
	for axis := 0; axis < 3; axis++ {
		if r.Human[axis].Total() == 0 || r.Object[axis].Total() == 0 {
			t.Fatalf("axis %d histograms empty", axis)
		}
	}
	// The z histograms must differ visibly: humans occupy the torso/head
	// band (z ∈ [−1.8, −1.0]) that most campus objects never reach. Bins
	// span [−3, 0] in 30 steps of 0.1 m → indices 12…19.
	humanBand, objectBand := 0, 0
	zh, zo := r.Human[2], r.Object[2]
	for i := 12; i < 20; i++ {
		humanBand += zh.Counts[i]
		objectBand += zo.Counts[i]
	}
	hFrac := float64(humanBand) / float64(zh.Total())
	oFrac := float64(objectBand) / float64(zo.Total())
	if hFrac <= oFrac {
		t.Errorf("human torso-band fraction (%.3f) should exceed object (%.3f)", hFrac, oFrac)
	}
}

func TestFigure10(t *testing.T) {
	r := Figure10()
	if len(r.Readings) == 0 || len(r.DailyMax) != 18 {
		t.Fatalf("series malformed: %d readings, %d days", len(r.Readings), len(r.DailyMax))
	}
	if r.Stats.Max < 50 || r.Stats.Max > 65 {
		t.Errorf("max %.1f outside paper envelope", r.Stats.Max)
	}
	if r.Stats.PeakDelta < 6 || r.Stats.PeakDelta > 14 {
		t.Errorf("peak delta %.1f, want ≈10", r.Stats.PeakDelta)
	}
}

func TestFigure11(t *testing.T) {
	rs := Figure11(sharedLab)
	if len(rs) != 3 {
		t.Fatalf("got %d density levels", len(rs))
	}
	// Point counts grow with pedestrian count.
	if !(rs[0].Points < rs[1].Points && rs[1].Points < rs[2].Points) {
		t.Errorf("point counts not increasing: %d %d %d", rs[0].Points, rs[1].Points, rs[2].Points)
	}
	for _, r := range rs {
		if r.OffsetHistX.Total() == 0 || r.OffsetHistY.Total() == 0 {
			t.Error("empty offset histograms")
		}
	}
	if s := FormatHistogramASCII(rs[0].OffsetHistX, 20); s == "" {
		t.Error("ASCII histogram empty")
	}
}

func TestTableIIIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("retrains HAWC three times")
	}
	rows := TableIII(sharedLab)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Method != "Object data sampling" {
		t.Errorf("first row = %q", rows[0].Method)
	}
	for _, r := range rows {
		if r.Acc <= 0.4 || r.Acc > 1 {
			t.Errorf("%s accuracy %.3f out of range", r.Method, r.Acc)
		}
	}
	if s := FormatTableIII(rows); !strings.Contains(s, "Gaussian") {
		t.Error("format output incomplete")
	}
}

func TestTableVIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("counts dense synthetic crowds")
	}
	rows := TableVI(sharedLab)
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Density != "Low" || rows[11].Density != "High" {
		t.Errorf("density labels: %s … %s", rows[0].Density, rows[11].Density)
	}
	// MAE grows with crowd size (the Table VI trend).
	if rows[11].MAE <= rows[0].MAE {
		t.Errorf("MAE at 250 (%.2f) should exceed MAE at 20 (%.2f)", rows[11].MAE, rows[0].MAE)
	}
	// Counts track the truth within a wide band at the quick preset's
	// weakly trained classifier (the standard preset reaches ≈85–90%).
	r := rows[11]
	if r.ActualK < r.TotalK*0.45 || r.ActualK > r.TotalK*1.55 {
		t.Errorf("250-person actual %.2fK vs total %.2fK", r.ActualK, r.TotalK)
	}
	if s := FormatTableVI(rows); !strings.Contains(s, "High") {
		t.Error("format output incomplete")
	}
}

func TestFigure8aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the lab's three neural models")
	}
	rs := Figure8a(sharedLab)
	if len(rs) != 3 {
		t.Fatalf("got %d curves", len(rs))
	}
	for _, r := range rs {
		if len(r.Acc) == 0 {
			t.Errorf("%s curve empty", r.Model)
		}
		for _, a := range r.Acc {
			if a < 0 || a > 1 {
				t.Errorf("%s accuracy %v out of range", r.Model, a)
			}
		}
	}
}

func TestFigure9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("retrains four projection variants")
	}
	rs := Figure9(sharedLab)
	if len(rs) != 5 {
		t.Fatalf("got %d projections", len(rs))
	}
	if rs[0].Projection != "HAP" {
		t.Errorf("first projection = %q", rs[0].Projection)
	}
	for _, r := range rs {
		if r.Acc <= 0.3 || r.MAE < 0 {
			t.Errorf("%s: acc %.3f MAE %.3f", r.Projection, r.Acc, r.MAE)
		}
	}
}

func TestConfigPresets(t *testing.T) {
	q, s, f := Quick(), Standard(), Full()
	if q.SamplesPerClass >= s.SamplesPerClass || s.SamplesPerClass >= f.SamplesPerClass {
		t.Error("presets not ordered by scale")
	}
	if q.Seed != s.Seed || s.Seed != f.Seed {
		t.Error("presets should share the default seed")
	}
}

// TestCurveRecordingLeavesTrainingUntouched pins what lets Figure 8a read
// its curves off the lab's one training run instead of retraining: the
// per-epoch evaluation callback does not move the weights (HAWC's
// fingerprint equals that of the same run without a callback), and each
// curve ends at the finished model's accuracy on the curve subset.
func TestCurveRecordingLeavesTrainingUntouched(t *testing.T) {
	l := NewLab(Config{
		Seed: 42, SamplesPerClass: 40,
		HAWCEpochs: 2, PointNetEpochs: 1, AEEpochs: 2,
		CurveEvalSamples: 10,
	})
	curves := Figure8a(l)

	plain := models.NewHAWC()
	mustTrain(plain.Train(l.Split().Train, models.TrainConfig{Epochs: l.Cfg.HAWCEpochs, Seed: l.Cfg.Seed + 3}))
	if got, want := l.HAWC().ModelVersion(), plain.ModelVersion(); got != want {
		t.Errorf("HAWC trained with the recording callback has version %08x, without it %08x", got, want)
	}

	subset := l.curveTest()
	if len(subset) != l.Cfg.CurveEvalSamples {
		t.Fatalf("curve subset has %d samples, want %d", len(subset), l.Cfg.CurveEvalSamples)
	}
	for i, tc := range []struct {
		clf    models.Classifier
		epochs int
	}{
		{l.HAWC(), l.Cfg.HAWCEpochs},
		{l.PointNet(), l.Cfg.PointNetEpochs},
		{l.AutoEncoder(), l.Cfg.AEEpochs},
	} {
		c := curves[i]
		if len(c.Acc) != tc.epochs {
			t.Errorf("%s curve has %d points, want one per epoch (%d)", c.Model, len(c.Acc), tc.epochs)
			continue
		}
		if got, want := c.Acc[len(c.Acc)-1], models.Evaluate(tc.clf, subset).Accuracy(); got != want {
			t.Errorf("%s curve ends at %v, the finished model scores %v", c.Model, got, want)
		}
	}
}

// TestFigure8bReusesTheLabModels pins Figure 8b's 100% column to the lab's
// own models: each row's first accuracy is Table I's FP32 accuracy, and
// the sweep retrains only below 100%, never the lab's models.
func TestFigure8bReusesTheLabModels(t *testing.T) {
	l := NewLab(Config{
		Seed: 42, SamplesPerClass: 40,
		HAWCEpochs: 2, PointNetEpochs: 1, AEEpochs: 2,
		CurveEvalSamples: 10,
	})
	version := l.HAWC().ModelVersion()
	rs := Figure8b(l)
	if got := l.HAWC().ModelVersion(); got != version {
		t.Errorf("lab HAWC version moved from %08x to %08x during Figure 8b", version, got)
	}

	test := l.Split().Test
	want := []struct {
		model string
		clf   models.Classifier
	}{
		{"HAWC", l.HAWC()},
		{"PointNet", l.PointNet()},
		{"AutoEncoder", l.AutoEncoder()},
	}
	if len(rs) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rs), len(want))
	}
	for i, w := range want {
		r := rs[i]
		if r.Model != w.model {
			t.Errorf("row %d is %q, want %q", i, r.Model, w.model)
		}
		if !slices.Equal(r.Fractions, Figure8bFractions) {
			t.Errorf("%s fractions %v, want %v", r.Model, r.Fractions, Figure8bFractions)
		}
		if len(r.Acc) != len(Figure8bFractions) {
			t.Errorf("%s has %d accuracies, want one per fraction (%d)", r.Model, len(r.Acc), len(Figure8bFractions))
			continue
		}
		for _, a := range r.Acc {
			if a < 0 || a > 1 {
				t.Errorf("%s accuracy %v out of range", r.Model, a)
			}
		}
		if got, want := r.Acc[0], models.Evaluate(w.clf, test).Accuracy(); got != want {
			t.Errorf("%s at 100%% scores %v, the lab's model %v", r.Model, got, want)
		}
	}
}
