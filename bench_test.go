package hawccc

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VII), each regenerating the corresponding result on
// the Quick experiment configuration, plus microbenchmarks of the hot
// pipeline stages. Run:
//
//	go test -bench=. -benchmem
//
// The shared lab trains each model once (outside the timed region where
// possible); Table III, Figure 8b and Figure 9 retrain by design, so their
// iterations are expensive — the Quick preset keeps them tractable.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hawccc/internal/cluster"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/experiments"
	"hawccc/internal/ground"
	"hawccc/internal/models"
	"hawccc/internal/projection"
	"hawccc/internal/upsample"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared Quick-config lab, training models on first use.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Quick())
	})
	return benchLab
}

func BenchmarkTableI(b *testing.B) {
	l := lab(b)
	l.HAWC() // train outside the timer
	l.HAWCInt8()
	l.PointNet()
	l.PointNetInt8()
	l.AutoEncoder()
	l.AutoEncoderInt8()
	l.OCSVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI(l)
		if len(rows) != 4 {
			b.Fatal("table I must have 4 rows")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	l := lab(b)
	l.HAWCInt8()
	l.PointNetInt8()
	l.AutoEncoderInt8()
	l.OCSVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableII(l)
		if len(rows) != 8 {
			b.Fatal("table II must have 8 rows")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	l := lab(b)
	l.HAWC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIII(l) // retrains 3 Gaussian variants
		if len(rows) != 4 {
			b.Fatal("table III must have 4 rows")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	l := lab(b)
	l.HAWC()
	l.Frames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIV(l)
		if len(rows) != 7 {
			b.Fatal("table IV must have 7 rows")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	l := lab(b)
	l.HAWCInt8()
	l.PointNetInt8()
	l.AutoEncoderInt8()
	l.OCSVM()
	l.Frames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableV(l)
		if len(rows) != 4 {
			b.Fatal("table V must have 4 rows")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	l := lab(b)
	l.HAWC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.TableVI(l)
		if len(rows) != 12 {
			b.Fatal("table VI must have 12 rows")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	l := lab(b)
	l.Frames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(l)
		if len(r.Curve) == 0 {
			b.Fatal("empty curve")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	l := lab(b)
	l.Split()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(l)
		if r.Human[2].Total() == 0 {
			b.Fatal("empty z histogram")
		}
	}
}

func BenchmarkFigure8b(b *testing.B) {
	l := lab(b)
	// The 100% column is the lab's models: train them before timing.
	l.HAWC()
	l.PointNet()
	l.AutoEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := experiments.Figure8b(l) // retrains 3 models × the 3 fractions below 100%
		if len(rs) != 3 {
			b.Fatal("figure 8b needs 3 curves")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	l := lab(b)
	l.HAWC()
	l.Frames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := experiments.Figure9(l) // retrains 4 projection variants
		if len(rs) != 5 {
			b.Fatal("figure 9 needs 5 projections")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10()
		if len(r.Readings) == 0 {
			b.Fatal("no readings")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	l := lab(b)
	l.Split()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := experiments.Figure11(l)
		if len(rs) != 3 {
			b.Fatal("figure 11 needs 3 density levels")
		}
	}
}

// --- Microbenchmarks of the pipeline's hot stages ---

func benchFrame(b *testing.B) dataset.Frame {
	b.Helper()
	g := dataset.NewGenerator(77)
	return g.CrowdFrames(1, 3, 3, 2)[0]
}

func BenchmarkIngest(b *testing.B) {
	f := benchFrame(b)
	roi := ground.DefaultROI()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ground.Ingest(f.Cloud, roi)
	}
}

// BenchmarkAdaptiveClustering prices the cluster stage — ε search and
// final labels — on one 3-person frame (/frame, the package-level
// call), and per frame on a reused Scratch over the ledger-like
// /walkway and /crowd scenes of ringScenes.
func BenchmarkAdaptiveClustering(b *testing.B) {
	cfg := cluster.DefaultAdaptiveConfig()
	b.Run("frame", func(b *testing.B) {
		f := benchFrame(b)
		cloud := ground.Ingest(f.Cloud, ground.DefaultROI())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = cluster.Adaptive(cloud, cfg)
		}
	})
	for _, w := range ringScenes {
		b.Run(w.name, func(b *testing.B) {
			clouds := w.clouds()
			var s cluster.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Adaptive(clouds[i%len(clouds)], cfg)
			}
		})
	}
}

// ringScenes are ground-ingested scenes built like the ledger's pole
// rings (bench/pole.go): seed 11, one frame per people count.
var ringScenes = []ringScene{
	{"walkway", 1, 6, 2},
	{"crowd", 16, 32, 6},
}

type ringScene struct {
	name                 string
	minPeople, maxPeople int
	objects              int
}

func (w ringScene) clouds() []Cloud {
	g := dataset.NewGenerator(11)
	var clouds []Cloud
	for k := w.minPeople; k <= w.maxPeople; k++ {
		f := g.CrowdFrames(1, k, k, w.objects)[0]
		clouds = append(clouds, ground.Ingest(f.Cloud, ground.DefaultROI()))
	}
	return clouds
}

// BenchmarkOptimalEpsilon prices one frame's ε search — k-distance
// curve, elbow and structure-gap pass — on a reused Scratch over the
// ringScenes.
func BenchmarkOptimalEpsilon(b *testing.B) {
	cfg := cluster.DefaultAdaptiveConfig()
	for _, w := range ringScenes {
		b.Run(w.name, func(b *testing.B) {
			clouds := w.clouds()
			var s cluster.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.OptimalEpsilon(clouds[i%len(clouds)], cfg)
			}
		})
	}
}

func BenchmarkHAPProjection(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cloud := make(Cloud, 289)
	for i := range cloud {
		cloud[i] = P(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.Float64()*1.8)
	}
	proj := projection.HAP{}
	img := make([]float32, len(cloud)*proj.Channels())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj.ProjectInto(img, cloud)
	}
}

func BenchmarkUpsampleFromPool(b *testing.B) {
	g := dataset.NewGenerator(5)
	samples := g.Objects(20)
	var clouds []Cloud
	for _, s := range samples {
		clouds = append(clouds, s.Cloud)
	}
	pool := upsample.NewPool(clouds)
	human := g.SinglePerson(1)[0].Cloud
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = upsample.FromPool(nil, rng, human, pool, 289)
	}
}

// BenchmarkHAWCInference measures the trained classifier's single-cluster
// latency on this host — the real-time budget the paper's Table II is
// about.
func BenchmarkHAWCInference(b *testing.B) {
	l := lab(b)
	h := l.HAWC()
	sample := l.Split().Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.PredictHuman(sample.Cloud)
	}
}

func BenchmarkHAWCInferenceInt8(b *testing.B) {
	l := lab(b)
	h := l.HAWCInt8()
	sample := l.Split().Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.PredictHuman(sample.Cloud)
	}
}

// BenchmarkHAWCInferenceBatched measures per-cluster cost when a frame's
// clusters are classified in one forward pass (PredictHumans) instead of
// one pass each — the amortization the im2col/GEMM kernels are built for.
func BenchmarkHAWCInferenceBatched(b *testing.B) {
	l := lab(b)
	test := l.Split().Test
	variants := []struct {
		name string
		clf  models.BatchClassifier
	}{
		{"fp32", l.HAWC()},
		{"int8", l.HAWCInt8()},
	}
	for _, v := range variants {
		for _, batch := range []int{1, 5, 8, 32} {
			clouds := make([]Cloud, batch)
			for i := range clouds {
				clouds[i] = test[i%len(test)].Cloud
			}
			b.Run(fmt.Sprintf("%s/batch=%d", v.name, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = v.clf.PredictHumans(clouds)
				}
			})
		}
	}
}

func BenchmarkPointNetInference(b *testing.B) {
	l := lab(b)
	p := l.PointNet()
	sample := l.Split().Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PredictHuman(sample.Cloud)
	}
}

// BenchmarkPipelineFrame measures the full HAWC-CC frame latency end to
// end (ingest + cluster + classify), the Table V speed column.
func BenchmarkPipelineFrame(b *testing.B) {
	l := lab(b)
	p := counting.New(l.HAWC())
	f := benchFrame(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Count(f.Cloud)
	}
}

func BenchmarkHAWCTraining(b *testing.B) {
	g := dataset.NewGenerator(9)
	samples := g.Classification(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := models.NewHAWC()
		if err := h.Train(samples, models.TrainConfig{Epochs: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkClustererAblation reports each clusterer's counting MAE as a
// custom benchmark metric alongside its cost — the Table IV ablation.
func BenchmarkClustererAblation(b *testing.B) {
	l := lab(b)
	clf := l.HAWC()
	frames := l.Frames()
	for _, c := range []counting.ScratchClusterer{
		counting.NewAdaptiveClusterer(),
		counting.FixedEpsClusterer{Eps: 0.3},
		counting.FixedEpsClusterer{Eps: 0.5},
		counting.HierarchicalClusterer{},
	} {
		b.Run(c.Name(), func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				p := counting.New(clf)
				p.Clusterer = c
				ev, err := counting.Evaluate(p, frames)
				if err != nil {
					b.Fatal(err)
				}
				mae = ev.MAE
			}
			b.ReportMetric(mae, "MAE")
		})
	}
}

// BenchmarkQuantizationAblation reports FP32 vs int8 accuracy and single-
// sample latency for HAWC — the quantization trade-off of Tables I/II.
func BenchmarkQuantizationAblation(b *testing.B) {
	l := lab(b)
	test := l.Split().Test
	variants := []struct {
		name string
		clf  models.Classifier
	}{
		{"fp32", l.HAWC()},
		{"int8", l.HAWCInt8()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			acc := models.Evaluate(v.clf, test).Accuracy()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = v.clf.PredictHuman(test[i%len(test)].Cloud)
			}
			b.ReportMetric(acc*100, "acc%")
		})
	}
}
