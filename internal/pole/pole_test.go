package pole

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/telemetry"
	"hawccc/internal/wire"
)

// tallStub is a training-free classifier for pipeline tests.
type tallStub struct{}

var _ models.Classifier = tallStub{}

func (tallStub) Name() string { return "TallStub" }
func (tallStub) PredictHuman(c geom.Cloud) bool {
	extent := c.Bounds().Size().Z
	return extent > 1.1 && extent < 2.3
}

// slowStub is tallStub behind a fixed delay per cluster, so a frame that
// holds a cluster takes at least that long to count.
type slowStub struct {
	tallStub
	delay time.Duration
}

func (s slowStub) PredictHuman(c geom.Cloud) bool {
	time.Sleep(s.delay)
	return s.tallStub.PredictHuman(c)
}

// slowConfig is testConfig over frames that each hold a cluster, counted
// by a one-worker pipeline that spends at least delay on every frame.
func slowConfig(t *testing.T, addr string, seed int64, frames int, delay time.Duration) Config {
	t.Helper()
	fs := dataset.NewGenerator(seed).CrowdFrames(frames, 2, 3, 0)
	fast := counting.New(tallStub{})
	for i, f := range fs {
		if fast.Count(f.Cloud).Clusters == 0 {
			t.Fatalf("fixture frame %d holds no cluster", i)
		}
	}
	cfg := testConfig(t, addr, fs)
	cfg.Pipeline = counting.New(slowStub{delay: delay})
	cfg.Pipeline.Parallelism = 1
	return cfg
}

func testConfig(t *testing.T, addr string, frames []dataset.Frame) Config {
	t.Helper()
	return Config{
		PoleID:      1,
		Location:    "Palm Walk",
		BackendAddr: addr,
		Pipeline:    counting.New(tallStub{}),
		Source:      &SliceSource{Frames: frames},
	}
}

func TestPoleStreamsReports(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(1)
	frames := g.CrowdFrames(4, 1, 3, 1)
	node, err := Dial(testConfig(t, srv.Addr(), frames))
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("processed %d frames, want 4", n)
	}
	if node.Acked() != 4 {
		t.Errorf("acked %d, want 4", node.Acked())
	}
	snap := srv.Snapshot()
	if len(snap) != 1 || snap[0].Reports != 4 || snap[0].Location != "Palm Walk" {
		t.Errorf("backend aggregates: %+v", snap)
	}
}

func TestPoleReceivesCrowdingAlert(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0", CrowdingLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(2)
	frames := g.CrowdFrames(3, 2, 4, 0)
	node, err := Dial(testConfig(t, srv.Addr(), frames))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(node.Alerts()) == 0 {
		t.Error("pole should have received crowding alerts")
	}
}

func TestPoleStreamsTelemetry(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0", OverheatLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(3)
	frames := g.CrowdFrames(2, 1, 2, 0)
	cfg := testConfig(t, srv.Addr(), frames)
	cfg.Telemetry = []telemetry.Reading{
		{At: time.Now(), Weather: 44, Pole: 57.8}, // above rated
		{At: time.Now(), Weather: 30, Pole: 35},
	}
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if len(snap) != 1 || snap[0].MaxTemp < 57 {
		t.Errorf("backend telemetry: %+v", snap)
	}
	alerts := srv.Alerts()
	if len(alerts) == 0 {
		t.Error("expected overheat alert")
	}
}

func TestPoleContextCancel(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(4)
	frames := g.CrowdFrames(3, 1, 1, 0)
	cfg := testConfig(t, srv.Addr(), frames)
	cfg.FrameInterval = time.Hour // would block forever without cancel
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	n, err := node.Run(ctx)
	if err == nil {
		t.Error("expected context error")
	}
	if n == 0 {
		t.Error("should process at least one frame before cancel")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel did not unblock promptly")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{Source: &SliceSource{}}); err == nil {
		t.Error("missing pipeline accepted")
	}
	if _, err := Dial(Config{Pipeline: counting.New(tallStub{})}); err == nil {
		t.Error("missing source accepted")
	}
	cfg := Config{
		Pipeline:    counting.New(tallStub{}),
		Source:      &SliceSource{},
		BackendAddr: "127.0.0.1:1", // nothing listening
	}
	if _, err := Dial(cfg); err == nil {
		t.Error("unreachable backend accepted")
	}
}

func TestSliceSourceEOF(t *testing.T) {
	s := &SliceSource{Frames: []dataset.Frame{{Count: 1}}}
	if _, err := s.NextFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextFrame(); err != io.EOF {
		t.Errorf("exhausted source error = %v, want io.EOF", err)
	}
}

func TestMultiplePolesOneBackend(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(5)
	done := make(chan error, 3)
	for id := uint32(1); id <= 3; id++ {
		frames := g.CrowdFrames(2, 1, 2, 0)
		cfg := testConfig(t, srv.Addr(), frames)
		cfg.PoleID = id
		node, err := Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := node.Run(context.Background())
			done <- err
		}()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.Snapshot()); got != 3 {
		t.Errorf("backend sees %d poles, want 3", got)
	}
}

// flakyBackend is a minimal wire-protocol server whose first session
// drops the TCP connection after acking dropAfter reports; subsequent
// sessions are stable. It records every report seq it acked, so tests
// can prove reconnection loses nothing, and how far behind its receive
// time each report was stamped.
type flakyBackend struct {
	ln        net.Listener
	dropAfter int
	killAll   bool // also close the listener when the first session drops
	alerts    int  // alerts sent ahead of each ack

	mu       sync.Mutex
	seqs     []uint64
	lags     []time.Duration // receive time minus CountReport.Timestamp
	sessions int
}

func newFlakyBackend(t *testing.T, dropAfter int, killAll bool, alerts int) *flakyBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{ln: ln, dropAfter: dropAfter, killAll: killAll, alerts: alerts}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.sessions++
			first := fb.sessions == 1
			fb.mu.Unlock()
			go fb.serve(conn, first)
		}
	}()
	return fb
}

func (fb *flakyBackend) Addr() string { return fb.ln.Addr().String() }

func (fb *flakyBackend) ackedSeqs() []uint64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]uint64(nil), fb.seqs...)
}

func (fb *flakyBackend) serve(conn net.Conn, first bool) {
	defer conn.Close()
	wc := wire.NewConn(conn)
	acked := 0
	for {
		typ, body, err := wc.Recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgHello, wire.MsgTelemetry:
			// no response required
		case wire.MsgCountReport:
			r, err := wire.DecodeCountReport(body)
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.seqs = append(fb.seqs, r.Seq)
			fb.lags = append(fb.lags, time.Since(r.Timestamp))
			fb.mu.Unlock()
			for a := 1; a <= fb.alerts; a++ {
				alert := wire.Alert{PoleID: r.PoleID, Kind: wire.AlertCrowding, Message: fmt.Sprintf("report %d alert %d", r.Seq, a)}
				if err := wc.Send(wire.MsgAlert, wire.EncodeAlert(alert)); err != nil {
					return
				}
			}
			if err := wc.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{Seq: r.Seq})); err != nil {
				return
			}
			acked++
			if first && fb.dropAfter > 0 && acked == fb.dropAfter {
				if fb.killAll {
					fb.ln.Close()
				}
				return // drop the connection mid-stream
			}
		}
	}
}

func TestPoleReconnectsAndResendsReports(t *testing.T) {
	fb := newFlakyBackend(t, 2, false, 0)
	g := dataset.NewGenerator(6)
	frames := g.CrowdFrames(5, 1, 2, 0)

	reg := obs.NewRegistry()
	cfg := testConfig(t, fb.Addr(), frames)
	cfg.MaxReconnects = 3
	cfg.Obs = reg
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Run(context.Background())
	if err != nil {
		t.Fatalf("Run after reconnect: %v", err)
	}
	if n != 5 {
		t.Errorf("processed %d frames, want 5", n)
	}
	if got := node.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if got := reg.Counter("pole_reconnects_total", "", obs.L("pole", "1")).Value(); got != 1 {
		t.Errorf("reconnect counter on registry = %d, want 1", got)
	}

	// Every report seq must have been acked exactly once: the connection
	// dropped after the ack, so nothing was dropped and nothing doubled.
	seen := map[uint64]int{}
	for _, s := range fb.ackedSeqs() {
		seen[s]++
	}
	for want := uint64(1); want <= 5; want++ {
		if seen[want] != 1 {
			t.Errorf("seq %d acked %d times, want exactly once (all: %v)", want, seen[want], fb.ackedSeqs())
		}
	}
}

func TestPoleFailsFastWithoutReconnectBudget(t *testing.T) {
	fb := newFlakyBackend(t, 1, false, 0)
	g := dataset.NewGenerator(7)
	frames := g.CrowdFrames(4, 1, 2, 0)

	cfg := testConfig(t, fb.Addr(), frames)
	// MaxReconnects left at zero: the historical fail-fast behavior.
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Run(context.Background())
	if err == nil {
		t.Error("expected delivery error with no reconnect budget")
	}
	if n >= 4 {
		t.Errorf("processed %d frames past a dead connection", n)
	}
	if node.Reconnects() != 0 {
		t.Errorf("reconnects = %d without budget", node.Reconnects())
	}
}

func TestPoleExhaustsReconnectBudgetWhenBackendGone(t *testing.T) {
	fb := newFlakyBackend(t, 1, true, 0) // listener dies with the first drop
	g := dataset.NewGenerator(8)
	frames := g.CrowdFrames(3, 1, 2, 0)

	cfg := testConfig(t, fb.Addr(), frames)
	cfg.MaxReconnects = 2
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(context.Background()); err == nil {
		t.Error("expected error once the reconnect budget is exhausted")
	}
}

func TestPoleCleanEOFShutdownMetrics(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(9)
	frames := g.CrowdFrames(3, 1, 2, 0)
	reg := obs.NewRegistry()
	cfg := testConfig(t, srv.Addr(), frames)
	cfg.MaxReconnects = 3 // budget present but unused on a healthy link
	cfg.Obs = reg
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Run(context.Background())
	if err != nil {
		t.Fatalf("clean EOF shutdown returned %v", err)
	}
	if n != 3 {
		t.Errorf("processed %d, want 3", n)
	}
	id := obs.L("pole", "1")
	if got := reg.Counter("pole_frames_processed_total", "", id).Value(); got != 3 {
		t.Errorf("frames counter = %d, want 3", got)
	}
	if got := reg.Counter("pole_reports_acked_total", "", id).Value(); got != 3 {
		t.Errorf("acked counter = %d, want 3", got)
	}
	if got := node.Reconnects(); got != 0 {
		t.Errorf("reconnects = %d on a healthy link", got)
	}
	if s := reg.Histogram("pole_report_rtt_seconds", "", nil, id).Snapshot(); s.Count != 3 {
		t.Errorf("rtt histogram observed %d reports, want 3", s.Count)
	}
	if node.BytesSent() == 0 {
		t.Error("wire byte counter never incremented")
	}
}

func TestPoleRunStreamsThroughScheduler(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := dataset.NewGenerator(14)
	frames := g.CrowdFrames(5, 1, 3, 1)
	reg := obs.NewRegistry()
	cfg := testConfig(t, srv.Addr(), frames)
	cfg.Pipeline = counting.New(tallStub{}).Instrument(reg)
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("processed %d frames, want %d", n, len(frames))
	}
	// Run counts through the streaming scheduler, so the stream series
	// carry the frames.
	if s := reg.Histogram("hawc_stream_e2e_seconds", "", obs.LatencyBuckets()).Snapshot(); s.Count != uint64(len(frames)) {
		t.Errorf("stream e2e histogram observed %d frames, want %d", s.Count, len(frames))
	}
	// Reports stay in frame order with at-least-once delivery intact.
	if got := node.Acked(); got != uint64(len(frames)) {
		t.Errorf("acked seq = %d, want %d", got, len(frames))
	}
}

// TestCaptureWaitRecordsBackpressure pins where a saturated pole's
// backpressure shows: the capture loop's wait for a free worker. Five
// unpaced frames at 20 ms or more each through one worker: every frame is
// timed, and frames 2-5 each wait out their predecessor. One-sided, so a
// slow runner cannot fail it.
func TestCaptureWaitRecordsBackpressure(t *testing.T) {
	fb := newFlakyBackend(t, 0, false, 0)
	reg := obs.NewRegistry()
	cfg := slowConfig(t, fb.Addr(), 15, 5, 20*time.Millisecond)
	cfg.Obs = reg
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := node.Run(context.Background()); err != nil || n != 5 {
		t.Fatalf("Run = %d, %v; want 5 frames", n, err)
	}
	s := reg.Histogram("pole_capture_wait_seconds", "", nil, obs.L("pole", "1")).Snapshot()
	if s.Count != 5 {
		t.Errorf("capture wait observed %d frames, want 5", s.Count)
	}
	if s.Sum < 0.060 {
		t.Errorf("capture waits sum to %.3fs, want at least 0.060s", s.Sum)
	}
}

// TestReportStampedWhenFrameTaken pins that a report carries the time its
// frame was taken, not the time it was sent: every frame spends at least
// 30 ms being counted, so every report is stamped at least that far
// behind the moment the backend receives it. One-sided, so a slow runner
// cannot fail it.
func TestReportStampedWhenFrameTaken(t *testing.T) {
	fb := newFlakyBackend(t, 0, false, 0)
	node, err := Dial(slowConfig(t, fb.Addr(), 16, 3, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := node.Run(context.Background()); err != nil || n != 3 {
		t.Fatalf("Run = %d, %v; want 3 frames", n, err)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.lags) != 3 {
		t.Fatalf("backend received %d reports, want 3", len(fb.lags))
	}
	for i, lag := range fb.lags {
		if lag < 30*time.Millisecond {
			t.Errorf("report %d stamped %v before it was received, want at least the 30ms its frame took to count", i+1, lag)
		}
	}
}

// TestAlertsKeepNewestBounded pins the bound on the received-alert list:
// a backend that answers each of 400 reports with three alerts leaves the
// newest DefaultAlertCap retained, oldest first, while AlertsReceived
// still counts all 1200.
func TestAlertsKeepNewestBounded(t *testing.T) {
	fb := newFlakyBackend(t, 0, false, 3) // never drops; three alerts per report
	const reports = 400
	cfg := testConfig(t, fb.Addr(), make([]dataset.Frame, reports))
	// No classifier: every frame counts zero at once, which is all a test
	// of the ack loop needs.
	cfg.Pipeline = counting.New(nil)
	node, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := node.Run(context.Background()); err != nil || n != reports {
		t.Fatalf("Run = %d, %v; want %d frames", n, err, reports)
	}
	alerts := node.Alerts()
	if len(alerts) != DefaultAlertCap {
		t.Fatalf("retained %d alerts, want %d", len(alerts), DefaultAlertCap)
	}
	// 1200 received, 1024 kept: the oldest kept is the 177th, alert 3 of
	// report 59; the newest is alert 3 of report 400.
	if got, want := alerts[0].Message, "report 59 alert 3"; got != want {
		t.Errorf("oldest retained alert = %q, want %q", got, want)
	}
	if got, want := alerts[len(alerts)-1].Message, "report 400 alert 3"; got != want {
		t.Errorf("newest retained alert = %q, want %q", got, want)
	}
	if got := node.AlertsReceived(); got != 3*reports {
		t.Errorf("AlertsReceived = %d, want %d", got, 3*reports)
	}
}
