package backend

import (
	"context"
	"testing"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/models"
	"hawccc/internal/pole"
	"hawccc/internal/wire"
)

// extentStub is a deterministic, training-free batch classifier shared
// by the edge and backend sides of the offload tests: a cluster is
// "human" when its vertical extent is person-sized. The rule's margins
// are far wider than the quantization tolerance, so edge and offloaded
// labels must agree exactly.
type extentStub struct{}

var _ models.BatchClassifier = extentStub{}

func (extentStub) Name() string { return "ExtentStub" }

func (extentStub) PredictHuman(c geom.Cloud) bool {
	extent := c.MaxZ() - c.MinZ()
	return extent > 1.1 && extent < 2.3
}

func (s extentStub) PredictHumans(cs []geom.Cloud) []bool {
	out := make([]bool, len(cs))
	for i, c := range cs {
		out[i] = s.PredictHuman(c)
	}
	return out
}

// TestOffloadServiceClassifiesBatches drives the offload service at the
// wire level: quantized batches in, positionally keyed labels out.
func TestOffloadServiceClassifiesBatches(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", Classifier: extentStub{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 5, Location: "Offload Walk"})); err != nil {
		t.Fatal(err)
	}
	human := make(geom.Cloud, 0, 40)
	for i := 0; i < 40; i++ {
		human = append(human, geom.Point3{X: 1, Y: 2, Z: -2.5 + 1.7*float64(i)/39})
	}
	short := make(geom.Cloud, 0, 40)
	for i := 0; i < 40; i++ {
		short = append(short, geom.Point3{X: 3, Y: 2, Z: -2.5 + 0.4*float64(i)/39})
	}
	for seq := uint64(1); seq <= 3; seq++ {
		batch := wire.BuildClusterBatch(5, seq, []geom.Cloud{human, short, human}, 0)
		if err := c.Send(wire.MsgClusterBatch, wire.EncodeClusterBatch(batch)); err != nil {
			t.Fatal(err)
		}
		typ, body, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgClassifyResult {
			t.Fatalf("seq %d: expected classify result, got type %d", seq, typ)
		}
		res, err := wire.DecodeClassifyResult(body)
		if err != nil {
			t.Fatal(err)
		}
		if res.PoleID != 5 || res.Seq != seq {
			t.Fatalf("result keyed (%d, %d), want (5, %d)", res.PoleID, res.Seq, seq)
		}
		want := []bool{true, false, true}
		for i, w := range want {
			if res.Labels[i] != w {
				t.Fatalf("seq %d labels = %v, want %v", seq, res.Labels, want)
			}
		}
	}
}

// TestOffloadBatchWithoutClassifierIsProtocolError pins the designed
// degradation: a backend with no classifier drops the offload
// connection, which is what flips the pole to local fallback.
func TestOffloadBatchWithoutClassifierIsProtocolError(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialBackend(t, s)
	batch := wire.BuildClusterBatch(1, 1, []geom.Cloud{{{X: 1, Y: 1, Z: 1}}}, 0)
	if err := c.Send(wire.MsgClusterBatch, wire.EncodeClusterBatch(batch)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Recv(); err == nil {
		t.Fatal("expected the backend to drop the connection")
	}
}

// runPole processes all frames through one pole node and returns the
// node after completion.
func runPole(t *testing.T, cfg pole.Config, frames []dataset.Frame) *pole.Node {
	t.Helper()
	cfg.Source = &pole.SliceSource{Frames: frames}
	n, err := pole.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	processed, err := n.Run(ctx)
	if err != nil {
		t.Fatalf("pole run: %v", err)
	}
	if processed != len(frames) {
		t.Fatalf("processed %d frames, want %d", processed, len(frames))
	}
	return n
}

// TestOffloadEndToEndCountEquivalence runs the same frames through an
// edge-classifying pole and a forced-offload pole against one backend
// and requires identical campus aggregates: offloaded classification
// through the quantized transport must not change a single count.
func TestOffloadEndToEndCountEquivalence(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", Classifier: extentStub{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	frames := dataset.NewGenerator(33).CrowdFrames(12, 1, 6, 2)
	base := pole.Config{BackendAddr: s.Addr()}

	edge := base
	edge.PoleID, edge.Location = 1, "edge"
	edge.Pipeline = counting.New(extentStub{})
	runPole(t, edge, frames)

	off := base
	off.PoleID, off.Location = 2, "offloaded"
	off.Pipeline = counting.New(extentStub{})
	off.Offload = counting.OffloadConfig{Mode: counting.OffloadForced}
	n := runPole(t, off, frames)

	_, remote, fallback := n.Offload().Decisions()
	if remote != uint64(len(frames)) || fallback != 0 {
		t.Fatalf("offload decisions remote=%d fallback=%d, want %d remote", remote, fallback, len(frames))
	}

	var edgeStats, offStats PoleStats
	for _, p := range s.Snapshot() {
		switch p.PoleID {
		case 1:
			edgeStats = p
		case 2:
			offStats = p
		}
	}
	if edgeStats.Reports != len(frames) || offStats.Reports != len(frames) {
		t.Fatalf("reports edge=%d offload=%d", edgeStats.Reports, offStats.Reports)
	}
	if edgeStats.TotalCount != offStats.TotalCount || edgeStats.PeakCount != offStats.PeakCount {
		t.Fatalf("counts diverged: edge total=%d peak=%d, offloaded total=%d peak=%d",
			edgeStats.TotalCount, edgeStats.PeakCount, offStats.TotalCount, offStats.PeakCount)
	}
	if offStats.TotalCount == 0 {
		t.Fatal("offloaded pole counted nothing — the scenario is degenerate")
	}
}

// TestOffloadFallbackAgainstBareBackend runs a forced-offload pole
// against a backend with no offload service: every frame must still be
// classified (locally) and reported, with counts identical to an edge
// run.
func TestOffloadFallbackAgainstBareBackend(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	frames := dataset.NewGenerator(34).CrowdFrames(6, 1, 5, 2)
	edge := pole.Config{BackendAddr: s.Addr(), PoleID: 1, Location: "edge", Pipeline: counting.New(extentStub{})}
	runPole(t, edge, frames)

	off := pole.Config{BackendAddr: s.Addr(), PoleID: 2, Location: "fallback", Pipeline: counting.New(extentStub{})}
	off.Offload = counting.OffloadConfig{Mode: counting.OffloadForced}
	n := runPole(t, off, frames)
	_, _, fallback := n.Offload().Decisions()
	if fallback != uint64(len(frames)) {
		t.Fatalf("fallbacks = %d, want %d (every frame)", fallback, len(frames))
	}

	var edgeStats, offStats PoleStats
	for _, p := range s.Snapshot() {
		switch p.PoleID {
		case 1:
			edgeStats = p
		case 2:
			offStats = p
		}
	}
	if offStats.Reports != len(frames) || offStats.TotalCount != edgeStats.TotalCount {
		t.Fatalf("fallback pole reports=%d total=%d, edge total=%d",
			offStats.Reports, offStats.TotalCount, edgeStats.TotalCount)
	}
}
