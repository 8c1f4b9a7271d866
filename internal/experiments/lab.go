// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII) on the simulated substrate. Each experiment is
// a function over a Lab, which lazily generates datasets and trains the
// four classifiers once, sharing them across experiments exactly as the
// paper's evaluation shares its trained models.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"hawccc/internal/dataset"
	"hawccc/internal/models"
)

// Config controls dataset sizes and training budgets.
type Config struct {
	// Seed drives everything; identical configs reproduce identical
	// numbers.
	Seed int64
	// SamplesPerClass sizes the single-person classification dataset
	// (the paper's is 15,028 captures).
	SamplesPerClass int
	// CrowdFrames sizes the multi-person counting dataset.
	CrowdFrames int
	// MaxPeoplePerFrame bounds pedestrians per counting frame.
	MaxPeoplePerFrame int
	// HAWCEpochs / PointNetEpochs / AEEpochs are training budgets.
	HAWCEpochs, PointNetEpochs, AEEpochs int
	// ScalabilityRuns and ScalabilityFrames size Table VI (paper: 3 runs
	// × 100 samples).
	ScalabilityRuns, ScalabilityFrames int
	// CurveEvalSamples bounds the test subset used for per-epoch accuracy
	// curves (Figure 8a) to keep evaluation affordable.
	CurveEvalSamples int
}

// Quick is a minutes-scale configuration used by tests and benchmarks;
// accuracy is lower than Standard but every relationship is preserved.
func Quick() Config {
	return Config{
		Seed:              42,
		SamplesPerClass:   320,
		CrowdFrames:       30,
		MaxPeoplePerFrame: 4,
		HAWCEpochs:        12,
		PointNetEpochs:    2,
		AEEpochs:          25,
		ScalabilityRuns:   1,
		ScalabilityFrames: 4,
		CurveEvalSamples:  60,
	}
}

// Standard is the configuration behind EXPERIMENTS.md: tens of minutes on
// one CPU core.
func Standard() Config {
	return Config{
		Seed:              42,
		SamplesPerClass:   1200,
		CrowdFrames:       100,
		MaxPeoplePerFrame: 6,
		HAWCEpochs:        24,
		PointNetEpochs:    6,
		AEEpochs:          60,
		ScalabilityRuns:   3,
		ScalabilityFrames: 10,
		CurveEvalSamples:  150,
	}
}

// Full approaches the paper's dataset scale; hours on one core.
func Full() Config {
	cfg := Standard()
	cfg.SamplesPerClass = 4000
	cfg.CrowdFrames = 300
	cfg.ScalabilityFrames = 100
	return cfg
}

// Lab owns the shared datasets and trained models.
type Lab struct {
	Cfg Config
	// Log, if non-nil, receives progress lines during expensive steps.
	Log io.Writer

	once struct {
		split, frames, pools              sync.Once
		hawc, hawcQ, pn, pnQ, ae, aeQ, oc sync.Once
	}
	split  dataset.Split
	frames []dataset.Frame
	// humanPool and objectPool are the training split's humans and
	// objects, the sources of Table VI's and Figure 11's synthetic crowds.
	humanPool, objectPool []dataset.Sample

	hawc  *models.HAWC
	hawcQ *models.HAWC
	pn    *models.PointNet
	pnQ   *models.PointNet
	ae    *models.AutoEncoder
	aeQ   *models.AutoEncoder
	oc    *models.OCSVM

	// hawcAcc, pnAcc and aeAcc are Figure 8a's curves: each model's
	// accuracy on curveTest after every epoch of its one training run.
	hawcAcc, pnAcc, aeAcc []float64
}

// NewLab builds a lab over cfg.
func NewLab(cfg Config) *Lab { return &Lab{Cfg: cfg} }

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		fmt.Fprintf(l.Log, format+"\n", args...)
	}
}

// Split returns the 80:20 single-person classification split.
func (l *Lab) Split() dataset.Split {
	l.once.split.Do(func() {
		l.logf("generating classification dataset (%d per class)...", l.Cfg.SamplesPerClass)
		g := dataset.NewGenerator(l.Cfg.Seed)
		samples := g.Classification(l.Cfg.SamplesPerClass)
		l.split = dataset.TrainTestSplit(rand.New(rand.NewSource(l.Cfg.Seed+1)), samples, 0.8)
	})
	return l.split
}

// Frames returns the multi-person counting frames.
func (l *Lab) Frames() []dataset.Frame {
	l.once.frames.Do(func() {
		l.logf("generating %d crowd frames...", l.Cfg.CrowdFrames)
		g := dataset.NewGenerator(l.Cfg.Seed + 2)
		l.frames = g.CrowdFrames(l.Cfg.CrowdFrames, 1, l.Cfg.MaxPeoplePerFrame, 2)
	})
	return l.frames
}

// pools returns the training split's human and object samples, each in
// split order.
func (l *Lab) pools() (human, object []dataset.Sample) {
	l.once.pools.Do(func() {
		for _, s := range l.Split().Train {
			if s.Human {
				l.humanPool = append(l.humanPool, s)
			} else {
				l.objectPool = append(l.objectPool, s)
			}
		}
	})
	return l.humanPool, l.objectPool
}

// Calib returns the quantization calibration subset (paper: 100 random
// training samples).
func (l *Lab) Calib() []dataset.Sample {
	train := l.Split().Train
	n := 100
	if n > len(train) {
		n = len(train)
	}
	return train[:n]
}

// curveTest is the bounded test subset the per-epoch accuracy curves are
// evaluated on.
func (l *Lab) curveTest() []dataset.Sample {
	test := l.Split().Test
	if len(test) > l.Cfg.CurveEvalSamples {
		test = test[:l.Cfg.CurveEvalSamples]
	}
	return test
}

// recordCurve returns a TrainConfig.Progress callback appending clf's
// accuracy on curveTest to acc after each epoch. Evaluation runs the
// stateless inference path on content-seeded inputs, so recording does
// not move the weights being trained (pinned by
// TestCurveRecordingLeavesTrainingUntouched).
func (l *Lab) recordCurve(clf models.Classifier, acc *[]float64) func(int) {
	test := l.curveTest()
	return func(int) { *acc = append(*acc, models.Evaluate(clf, test).Accuracy()) }
}

// HAWC returns the trained full-precision HAWC.
func (l *Lab) HAWC() *models.HAWC {
	l.once.hawc.Do(func() {
		l.logf("training HAWC (%d epochs)...", l.Cfg.HAWCEpochs)
		l.hawc = models.NewHAWC()
		mustTrain(l.hawc.Train(l.Split().Train, models.TrainConfig{
			Epochs: l.Cfg.HAWCEpochs, Seed: l.Cfg.Seed + 3,
			Progress: l.recordCurve(l.hawc, &l.hawcAcc),
		}))
	})
	return l.hawc
}

// HAWCInt8 returns the quantized HAWC.
func (l *Lab) HAWCInt8() *models.HAWC {
	l.once.hawcQ.Do(func() {
		q, err := l.HAWC().Quantize(l.Calib())
		mustTrain(err)
		l.hawcQ = q
	})
	return l.hawcQ
}

// PointNet returns the trained full-precision PointNet.
func (l *Lab) PointNet() *models.PointNet {
	l.once.pn.Do(func() {
		l.logf("training PointNet (%d epochs)...", l.Cfg.PointNetEpochs)
		l.pn = models.NewPointNet()
		mustTrain(l.pn.Train(l.Split().Train, models.TrainConfig{
			Epochs: l.Cfg.PointNetEpochs, Seed: l.Cfg.Seed + 4,
			Progress: l.recordCurve(l.pn, &l.pnAcc),
		}))
	})
	return l.pn
}

// PointNetInt8 returns the quantized PointNet.
func (l *Lab) PointNetInt8() *models.PointNet {
	l.once.pnQ.Do(func() {
		q, err := l.PointNet().Quantize(l.Calib())
		mustTrain(err)
		l.pnQ = q
	})
	return l.pnQ
}

// AutoEncoder returns the trained AutoEncoder baseline.
func (l *Lab) AutoEncoder() *models.AutoEncoder {
	l.once.ae.Do(func() {
		l.logf("training AutoEncoder (%d epochs)...", l.Cfg.AEEpochs)
		l.ae = models.NewAutoEncoder()
		mustTrain(l.ae.Train(l.Split().Train, models.TrainConfig{
			Epochs: l.Cfg.AEEpochs, Seed: l.Cfg.Seed + 5,
			Progress: l.recordCurve(l.ae, &l.aeAcc),
		}))
	})
	return l.ae
}

// AutoEncoderInt8 returns the quantized AutoEncoder.
func (l *Lab) AutoEncoderInt8() *models.AutoEncoder {
	l.once.aeQ.Do(func() {
		q, err := l.AutoEncoder().Quantize(l.Calib())
		mustTrain(err)
		l.aeQ = q
	})
	return l.aeQ
}

// OCSVM returns the trained OC-SVM baseline.
func (l *Lab) OCSVM() *models.OCSVM {
	l.once.oc.Do(func() {
		l.logf("training OC-SVM...")
		l.oc = models.NewOCSVM()
		mustTrain(l.oc.Train(l.Split().Train, models.TrainConfig{Seed: l.Cfg.Seed + 6}))
	})
	return l.oc
}

// mustTrain converts training errors into panics: experiment code is
// driver code, and a failed training run means the experiment definition
// itself is broken.
func mustTrain(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}
