package counting

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hawccc/internal/geom"
	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// loopbackRemote classifies through the full quantized transport
// in-process: encode → decode → dequantize → classify, exactly what
// the backend's offload service does over TCP with the pipeline's
// prebuilt batch.
type loopbackRemote struct {
	calls atomic.Uint64
	fail  atomic.Bool
}

func (r *loopbackRemote) ClassifyRemote(batch *wire.ClusterBatch) ([]bool, error) {
	r.calls.Add(1)
	if r.fail.Load() {
		return nil, errors.New("loopback: transport down")
	}
	b, err := wire.DecodeClusterBatch(wire.EncodeClusterBatch(*batch))
	if err != nil {
		return nil, err
	}
	labels := make([]bool, len(b.Clusters))
	var buf geom.Cloud
	for i := range b.Clusters {
		buf = b.AppendCloud(i, buf[:0])
		labels[i] = heightStub{}.PredictHuman(buf)
	}
	return labels, nil
}

// TestStreamForcedOffloadMatchesGolden pins count equivalence through
// the transport: every frame shipped through quantize → encode →
// decode → dequantize must reproduce the golden per-frame counts, in
// order.
func TestStreamForcedOffloadMatchesGolden(t *testing.T) {
	frames := goldenInput()
	remote := &loopbackRemote{}
	ctl := NewOffloadController(OffloadConfig{Mode: OffloadForced, Remote: remote})
	p := New(heightStub{})
	results := streamFrames(context.Background(), p, frames, StreamConfig{Offload: ctl})
	if len(results) != len(frames) {
		t.Fatalf("got %d results, want %d", len(results), len(frames))
	}
	for i, r := range results {
		if r.Seq != uint64(i) {
			t.Errorf("result %d has seq %d — out of order", i, r.Seq)
		}
		g := goldenFrames[i]
		if r.Count != g.count || r.Clusters != g.clusters || r.Noise != g.noise {
			t.Errorf("frame %d: offloaded {%d %d %d}, golden {%d %d %d}",
				i, r.Count, r.Clusters, r.Noise, g.count, g.clusters, g.noise)
		}
	}
	if remote.calls.Load() == 0 {
		t.Fatal("forced mode never called the remote classifier")
	}
	if _, rem, _ := ctl.Decisions(); rem != uint64(len(frames)) {
		t.Errorf("remote decisions %d, want %d", rem, len(frames))
	}
}

// TestStreamOffloadFallback pins at-least-once delivery across remote
// failure: with the transport down every frame still emits, classified
// locally, with golden counts, and the controller accounts the
// fallbacks.
func TestStreamOffloadFallback(t *testing.T) {
	frames := goldenInput()
	remote := &loopbackRemote{}
	remote.fail.Store(true)
	ctl := NewOffloadController(OffloadConfig{Mode: OffloadForced, Remote: remote})
	p := New(heightStub{})
	results := streamFrames(context.Background(), p, frames, StreamConfig{Offload: ctl})
	if len(results) != len(frames) {
		t.Fatalf("got %d results, want %d — frames were lost", len(results), len(frames))
	}
	for i, r := range results {
		g := goldenFrames[i]
		if r.Count != g.count || r.Clusters != g.clusters {
			t.Errorf("frame %d: fallback {%d %d}, golden {%d %d}", i, r.Count, r.Clusters, g.count, g.clusters)
		}
	}
	_, _, fallbacks := ctl.Decisions()
	if fallbacks == 0 {
		t.Error("no fallbacks recorded despite a failing remote")
	}
}

// TestOffloadControllerThermalHysteresis drives the adaptive state
// machine directly: cool stays local, crossing the enter temperature
// sheds immediately, and returning local requires MinDwellFrames calm
// frames after cooling below the exit bound.
func TestOffloadControllerThermalHysteresis(t *testing.T) {
	remote := &loopbackRemote{}
	ctl := NewOffloadController(OffloadConfig{
		Mode:              OffloadAdaptive,
		Remote:            remote,
		EnterQueueDepth:   -1, // isolate the thermal signal
		EnterBackpressure: -1,
		MinDwellFrames:    3,
	})
	ctl.SetTemperature(30)
	for i := 0; i < 5; i++ {
		if ctl.ShouldOffload(0, 0) {
			t.Fatalf("frame %d: offloaded while cool", i)
		}
	}
	ctl.SetTemperature(55)
	if !ctl.ShouldOffload(0, 0) {
		t.Fatal("did not shed immediately at 55°C")
	}
	if !ctl.Offloading() || ctl.Switches() != 1 {
		t.Fatalf("offloading=%v switches=%d after thermal trip", ctl.Offloading(), ctl.Switches())
	}
	// Inside the hysteresis band (between exit and enter) it must stay
	// offloaded.
	ctl.SetTemperature(47)
	for i := 0; i < 10; i++ {
		if !ctl.ShouldOffload(0, 0) {
			t.Fatalf("frame %d: exited inside the hysteresis band", i)
		}
	}
	// Below the exit bound it exits only after the dwell.
	ctl.SetTemperature(40)
	for i := 0; i < 2; i++ {
		if !ctl.ShouldOffload(0, 0) {
			t.Fatalf("frame %d: exited before MinDwellFrames", i)
		}
	}
	if ctl.ShouldOffload(0, 0) {
		t.Fatal("still offloading after MinDwellFrames calm frames")
	}
	if ctl.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", ctl.Switches())
	}
	local, rem, _ := ctl.Decisions()
	if local == 0 || rem == 0 {
		t.Fatalf("decisions local=%d remote=%d: both kinds expected", local, rem)
	}
}

// TestOffloadControllerQueueSignals pins the two queue-fed signals:
// depth at/above the enter threshold sheds, as does any blocked handoff
// since the previous decision; a single calm dwell period returns
// local.
func TestOffloadControllerQueueSignals(t *testing.T) {
	ctl := NewOffloadController(OffloadConfig{
		Mode:           OffloadAdaptive,
		Remote:         &loopbackRemote{},
		EnterTempC:     -1, // isolate the queue signals
		MinDwellFrames: 2,
	})
	if ctl.ShouldOffload(0, 0) {
		t.Fatal("offloaded with an empty queue")
	}
	if !ctl.ShouldOffload(DefaultQueueDepth, 0) {
		t.Fatal("full input queue did not trigger offload")
	}
	for i := 0; i < 2; i++ {
		ctl.ShouldOffload(0, 0)
	}
	if ctl.Offloading() {
		t.Fatal("did not return local after calm dwell")
	}
	// Backpressure: the cumulative blocked count advancing by ≥ 1
	// between decisions trips the signal.
	if !ctl.ShouldOffload(0, 1) {
		t.Fatal("blocked handoff did not trigger offload")
	}
	// The same cumulative value later means no new blocking — calm.
	for i := 0; i < 2; i++ {
		ctl.ShouldOffload(0, 1)
	}
	if ctl.Offloading() {
		t.Fatal("stale backpressure kept the controller offloading")
	}
}

// TestOffloadControllerDisabledSignalsDoNotBlockExit pins the calm-side
// gating: a signal disabled for entry (negative threshold) must not
// hold the controller in the offloading state either. Under live
// streaming the input queue routinely holds a frame or two, so a
// thermal-only controller has to exit through a nonzero queue depth.
func TestOffloadControllerDisabledSignalsDoNotBlockExit(t *testing.T) {
	ctl := NewOffloadController(OffloadConfig{
		Mode:              OffloadAdaptive,
		Remote:            &loopbackRemote{},
		EnterQueueDepth:   -1,
		EnterBackpressure: -1,
		MinDwellFrames:    2,
	})
	ctl.SetTemperature(60)
	if !ctl.ShouldOffload(3, 5) {
		t.Fatal("did not shed at 60°C")
	}
	ctl.SetTemperature(30)
	// Queue depth stays nonzero and blocked handoffs keep advancing —
	// both signals are disabled, so neither may veto the calm dwell.
	ctl.ShouldOffload(3, 6)
	ctl.ShouldOffload(2, 7)
	if ctl.Offloading() {
		t.Fatal("disabled queue signals blocked the thermal exit")
	}
}

// TestOffloadControllerNilAndOff pins the zero-cost paths: a nil
// controller and OffloadOff both always decide local.
func TestOffloadControllerNilAndOff(t *testing.T) {
	var nilCtl *OffloadController
	if nilCtl.ShouldOffload(100, 100) || nilCtl.Offloading() || nilCtl.Switches() != 0 {
		t.Fatal("nil controller must decide local")
	}
	nilCtl.SetTemperature(99) // must not panic
	off := NewOffloadController(OffloadConfig{Mode: OffloadOff, Remote: &loopbackRemote{}})
	if off.ShouldOffload(100, 100) {
		t.Fatal("OffloadOff must decide local")
	}
	noRemote := NewOffloadController(OffloadConfig{Mode: OffloadForced})
	if noRemote.ShouldOffload(100, 100) {
		t.Fatal("a controller without a Remote must decide local")
	}
}

// TestOffloadControllerInstrumented checks the decision series land in
// the registry.
func TestOffloadControllerInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	remote := &loopbackRemote{}
	ctl := NewOffloadController(OffloadConfig{Mode: OffloadForced, Remote: remote}).Instrument(reg, obs.L("pole", "7"))
	p := New(heightStub{}).Instrument(reg, obs.L("pole", "7"))
	results := streamFrames(context.Background(), p, goldenInput(), StreamConfig{Offload: ctl})
	if len(results) != len(goldenFrames) {
		t.Fatalf("got %d results", len(results))
	}
	if ctl.decRemote.Value() != uint64(len(goldenFrames)) {
		t.Errorf("remote decision counter = %d, want %d", ctl.decRemote.Value(), len(goldenFrames))
	}
	if snap := ctl.rtt.Snapshot(); snap.Count == 0 {
		t.Error("rtt histogram recorded nothing")
	}
}

func TestParseOffloadMode(t *testing.T) {
	for s, want := range map[string]OffloadMode{"off": OffloadOff, "": OffloadOff, "forced": OffloadForced, "adaptive": OffloadAdaptive} {
		got, err := ParseOffloadMode(s)
		if err != nil || got != want {
			t.Errorf("ParseOffloadMode(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Errorf("mode %v has empty String", got)
		}
	}
	if _, err := ParseOffloadMode("bogus"); err == nil {
		t.Error("bogus mode should fail to parse")
	}
}
