package backend

import (
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

func dialBackend(t *testing.T, s *Server) *wire.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return wire.NewConn(conn)
}

func TestHelloAndCountAggregation(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 1, Location: "Palm Walk", ModelVersion: 7})); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		report := wire.CountReport{PoleID: 1, Seq: seq, Timestamp: time.Now(), Count: uint32(seq * 2)}
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
			t.Fatal(err)
		}
		typ, body, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgAck {
			t.Fatalf("expected ack, got type %d", typ)
		}
		ack, err := wire.DecodeAck(body)
		if err != nil || ack.Seq != seq {
			t.Fatalf("ack %+v err=%v", ack, err)
		}
	}

	snap := s.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d poles", len(snap))
	}
	p := snap[0]
	if p.Location != "Palm Walk" || p.Reports != 3 || p.LastCount != 6 || p.TotalCount != 12 || p.PeakCount != 6 {
		t.Errorf("aggregates: %+v", p)
	}
	if s.CampusCount() != 6 {
		t.Errorf("campus count = %d", s.CampusCount())
	}
	// The announced classifier version is inventory: listed, never alerted on.
	var one struct {
		Pole map[string]any `json:"pole"`
	}
	if get(t, s.APIHandler(), "/api/poles/1", &one); one.Pole["model_version"] != 7.0 || one.Pole["alerts"] != 0.0 || len(s.Alerts()) != 0 {
		t.Errorf("model_version 7 should be listed with no alert: %v, alerts %v", one.Pole, s.Alerts())
	}
}

func TestCrowdingAlert(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", CrowdingLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	report := wire.CountReport{PoleID: 2, Seq: 1, Count: 25}
	if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
		t.Fatal(err)
	}
	// Ack then alert.
	typ, _, err := c.Recv()
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("expected ack: type=%d err=%v", typ, err)
	}
	typ, body, err := c.Recv()
	if err != nil || typ != wire.MsgAlert {
		t.Fatalf("expected alert: type=%d err=%v", typ, err)
	}
	alert, err := wire.DecodeAlert(body)
	if err != nil || alert.Kind != wire.AlertCrowding {
		t.Fatalf("alert %+v err=%v", alert, err)
	}
	if len(s.Alerts()) != 1 {
		t.Errorf("server recorded %d alerts", len(s.Alerts()))
	}
}

func TestOverheatAlert(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", OverheatLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	tm := wire.Telemetry{PoleID: 3, Timestamp: time.Now(), PoleTemp: 57.8, Ambient: 46}
	if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(tm)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := c.Recv()
	if err != nil || typ != wire.MsgAlert {
		t.Fatalf("expected alert: type=%d err=%v", typ, err)
	}
	alert, err := wire.DecodeAlert(body)
	if err != nil || alert.Kind != wire.AlertOverheat {
		t.Fatalf("alert %+v err=%v", alert, err)
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].MaxTemp < 57 {
		t.Errorf("telemetry aggregates: %+v", snap)
	}
}

func TestMultiplePoles(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for id := uint32(1); id <= 3; id++ {
		c := dialBackend(t, s)
		if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: id, Location: "loc"})); err != nil {
			t.Fatal(err)
		}
		report := wire.CountReport{PoleID: id, Seq: 1, Count: id * 10}
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d poles", len(snap))
	}
	// Sorted by pole id.
	for i, p := range snap {
		if p.PoleID != uint32(i+1) {
			t.Errorf("snapshot[%d].PoleID = %d", i, p.PoleID)
		}
	}
	if s.CampusCount() != 60 {
		t.Errorf("campus count = %d, want 60", s.CampusCount())
	}
}

func TestCloseUnblocksHandlers(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Connection idle; Close must not hang waiting for it.
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an idle connection open")
	}
}

// TestMalformedMessageDropsConnection: a message type the backend does
// not speak, sent after a valid hello, drops the connection through the
// handler's default branch and records nothing for the pole. Types 6 and 7
// are the retired cluster batch and classify result; the body is a
// well-formed batch as PR 15's wire.EncodeClusterBatch wrote it (pole 1,
// seq 1, one three-point cluster at the 2 mm scale), so an old pole still
// shipping clusters gets the same answer as junk.
func TestMalformedMessageDropsConnection(t *testing.T) {
	batch, err := hex.DecodeString("000000010000000000000001000000003ff00000000000004000000000000000c0040000000000003f60624dd2f1a9fc0000000100000003000701f590000800fa64000a002eee10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		typ  wire.MsgType
		body []byte
	}{
		{99, []byte("junk")},
		{6, batch},
		{7, batch},
	} {
		t.Run(fmt.Sprintf("type%d", tc.typ), func(t *testing.T) {
			// Room for the two lines this connection logs (connected, then
			// the error); the sink never blocks the server.
			logs := make(chan string, 8)
			s, err := Listen(Config{Addr: "127.0.0.1:0", Logf: func(f string, a ...any) {
				select {
				case logs <- fmt.Sprintf(f, a...):
				default:
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			c := dialBackend(t, s)
			if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 1, Location: "Palm Walk"})); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(tc.typ, tc.body); err != nil {
				t.Fatal(err)
			}
			// The server drops the connection; the next read fails.
			if _, _, err := c.Recv(); err == nil {
				t.Fatal("expected dropped connection after malformed message")
			}
			want := fmt.Sprintf("unexpected message type %d", tc.typ)
			for logged := false; !logged; {
				select {
				case line := <-logs:
					logged = strings.Contains(line, want)
				case <-time.After(5 * time.Second):
					t.Fatalf("no log line with %q", want)
				}
			}
			snap := s.Snapshot()
			if len(snap) != 1 || snap[0].Reports != 0 || snap[0].Alerts != 0 {
				t.Errorf("pole state after the drop: %+v", snap)
			}
		})
	}
}

// TestOverheatBoundaryAtRatedLimit pins the "meets or exceeds" contract:
// a compartment at exactly the 50°C rated limit raises the alert.
func TestOverheatBoundaryAtRatedLimit(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", OverheatLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	exact := wire.Telemetry{PoleID: 4, Timestamp: time.Now(), PoleTemp: 50.0, Ambient: 44}
	if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(exact)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := c.Recv()
	if err != nil || typ != wire.MsgAlert {
		t.Fatalf("reading at exactly the rated limit must alert: type=%d err=%v", typ, err)
	}
	alert, err := wire.DecodeAlert(body)
	if err != nil || alert.Kind != wire.AlertOverheat {
		t.Fatalf("alert %+v err=%v", alert, err)
	}

	// Just under the limit must stay silent: send a report afterwards and
	// verify the next message is its ack, not a second alert.
	below := wire.Telemetry{PoleID: 4, Timestamp: time.Now(), PoleTemp: 49.99, Ambient: 44}
	if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(below)); err != nil {
		t.Fatal(err)
	}
	report := wire.CountReport{PoleID: 4, Seq: 1, Count: 0}
	if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
		t.Fatal(err)
	}
	typ, _, err = c.Recv()
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("49.99°C alerted (got type %d, err %v); the boundary is meets-or-exceeds, not below", typ, err)
	}
	if got := len(s.Alerts()); got != 1 {
		t.Errorf("alerts = %d, want exactly 1", got)
	}
}

func TestBackendMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Listen(Config{Addr: "127.0.0.1:0", CrowdingLimit: 5, OverheatLimit: 50, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialBackend(t, s)
	if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 7, Location: "Palm Walk"})); err != nil {
		t.Fatal(err)
	}
	report := wire.CountReport{PoleID: 7, Seq: 1, Count: 9, LatencyUS: 4200}
	if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
		t.Fatalf("ack: type=%d err=%v", typ, err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAlert {
		t.Fatalf("crowding alert: type=%d err=%v", typ, err)
	}
	tm := wire.Telemetry{PoleID: 7, Timestamp: time.Now(), PoleTemp: 57.8, Ambient: 44}
	if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(tm)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAlert {
		t.Fatalf("overheat alert: type=%d err=%v", typ, err)
	}

	// backend_reports_total is one unlabelled process-wide counter; the
	// pole's own numbers live in its row, not in per-pole series.
	if got := reg.Counter("backend_reports_total", "").Value(); got != 1 {
		t.Errorf("reports counter = %d, want 1", got)
	}
	if got := reg.Counter("backend_alerts_total", "", obs.L("kind", "crowding")).Value(); got != 1 {
		t.Errorf("crowding alerts = %d, want 1", got)
	}
	if got := reg.Counter("backend_alerts_total", "", obs.L("kind", "overheat")).Value(); got != 1 {
		t.Errorf("overheat alerts = %d, want 1", got)
	}
	row, ok := s.RebuildSnapshot().Pole(7)
	if !ok {
		t.Fatal("pole 7 missing from the forced snapshot")
	}
	if row.Reports != 1 || row.Alerts != 2 || row.LastCount != 9 || row.LastTemp != 57.8 || row.LastSeen.IsZero() {
		t.Errorf("pole row = %+v, want reports 1, alerts 2, last count 9, last temp 57.8, last seen set", row)
	}
	if s := reg.Histogram("backend_report_edge_latency_seconds", "", nil).Snapshot(); s.Count != 1 || s.Sum < 0.004 {
		t.Errorf("edge latency histogram count=%d sum=%g, want 1 observation near 4.2ms", s.Count, s.Sum)
	}
	if got := reg.Counter("backend_connections_total", "").Value(); got != 1 {
		t.Errorf("connections total = %d, want 1", got)
	}
	if reg.Counter("backend_wire_bytes_received_total", "").Value() == 0 {
		t.Error("wire receive bytes never counted")
	}
	if reg.Counter("backend_wire_bytes_sent_total", "").Value() == 0 {
		t.Error("wire send bytes never counted")
	}
}

// TestConcurrentPoleLogsDoNotInterleave hammers the serialized logf from
// many pole connections; each log line must arrive atomically.
func TestConcurrentPoleLogsDoNotInterleave(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s, err := Listen(Config{
		Addr:          "127.0.0.1:0",
		CrowdingLimit: 1,
		Logf: func(format string, args ...any) {
			// Simulate a multi-write sink: any interleaving between these
			// two appends would corrupt a line.
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for id := uint32(1); id <= 8; id++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			c := dialBackend(t, s)
			if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: id, Location: "w"})); err != nil {
				return
			}
			report := wire.CountReport{PoleID: id, Seq: 1, Count: 10}
			if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(report)); err != nil {
				return
			}
			c.Recv() // ack
			c.Recv() // alert
		}(id)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if !strings.HasPrefix(l, "backend: ") {
			t.Errorf("malformed log line %q", l)
		}
	}
	if len(lines) < 16 { // 8 connects + 8 alerts
		t.Errorf("got %d log lines, want at least 16", len(lines))
	}
}
