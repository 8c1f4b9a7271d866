package backend

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// TestMetricsCardinalityIndependentOfFleetSize pins that a pole is kept
// once: its present in the registry row, what it reported in five history
// series, and nothing about it in /metrics — the exposition has the same
// number of lines at 1 pole and at 200, none labelled by pole.
func TestMetricsCardinalityIndependentOfFleetSize(t *testing.T) {
	reg := obs.NewRegistry()
	s := newHistoryTestServer(t, reg)
	c := dialBackend(t, s)

	// enroll sends hello + telemetry + report for poles from..to and
	// returns the exposition once every report is acked.
	enroll := func(from, to uint32) string {
		t.Helper()
		now := time.Now()
		for id := from; id <= to; id++ {
			if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: id, Location: "walk", Zone: "z"})); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(wire.Telemetry{PoleID: id, Timestamp: now, PoleTemp: 30, Ambient: 25})); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(wire.CountReport{PoleID: id, Seq: 1, Timestamp: now, Count: 2, Clusters: 3})); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
				t.Fatalf("pole %d: recv type %d err %v", id, typ, err)
			}
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	check := func(text string, poles int) {
		t.Helper()
		reports, perPole, first := "", 0, ""
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, `pole="`) {
				if perPole++; perPole == 1 {
					first = line
				}
			}
			if v, ok := strings.CutPrefix(line, "backend_reports_total "); ok {
				reports = v
			}
		}
		if perPole != 0 {
			t.Errorf("at %d poles /metrics carries %d per-pole lines, the first: %s", poles, perPole, first)
		}
		if reports != strconv.Itoa(poles) {
			t.Errorf("at %d poles backend_reports_total = %q, want %d", poles, reports, poles)
		}
		if got := s.History().Stats().Series; got != 5*poles {
			t.Errorf("at %d poles the history store holds %d series, want %d", poles, got, 5*poles)
		}
	}

	one := enroll(1, 1)
	check(one, 1)
	many := enroll(2, 200)
	check(many, 200)
	if a, b := strings.Count(one, "\n"), strings.Count(many, "\n"); a != b {
		t.Errorf("/metrics has %d lines at 1 pole and %d at 200; the exposition must not grow with the fleet", a, b)
	}
}

// TestNonFiniteTelemetryKeepsCampusServable: one NaN or +Inf compartment
// reading (a float64 straight off the socket) must not blank the campus
// listings or pin MaxTemp. The reading reaches history, served as null;
// the pole's row keeps its last finite temperature; no overheat alert.
func TestNonFiniteTelemetryKeepsCampusServable(t *testing.T) {
	s, err := Listen(Config{
		Addr:             "127.0.0.1:0",
		SnapshotInterval: -1,
		OverheatLimit:    50,
		History:          &tsdb.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := dialBackend(t, s)

	base := time.Unix(1700000000, 0).UTC()
	telemetry := func(id uint32, sec int, temp, ambient float64) {
		t.Helper()
		tm := wire.Telemetry{PoleID: id, Timestamp: base.Add(time.Duration(sec) * time.Second), PoleTemp: temp, Ambient: ambient}
		if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(tm)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(1); id <= 3; id++ {
		if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: id, Location: "walk", Zone: "z"})); err != nil {
			t.Fatal(err)
		}
		telemetry(id, 0, 30+float64(id)/2, 25)
	}
	telemetry(2, 1, math.NaN(), math.Inf(-1))
	telemetry(3, 1, math.Inf(1), 25)
	// Telemetry is not acked; a report's ack fences it, and must be the
	// next message — not an overheat alert for +Inf.
	if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(wire.CountReport{PoleID: 1, Seq: 1, Count: 4})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
		t.Fatalf("after non-finite telemetry: recv type %d err %v, want the report's ack", typ, err)
	}
	s.RebuildSnapshot()

	h := s.APIHandler()
	for _, path := range []string{"/api/poles", "/api/top", "/api/poles/2", "/api/poles/3", "/api/zones/z"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200 (body %q)", path, rec.Code, rec.Body.String())
		}
		if n := rec.Body.Len(); n == 0 || rec.Header().Get("Content-Length") != strconv.Itoa(n) {
			t.Errorf("%s: Content-Length %q for a %d-byte body, want a non-empty body of that length", path, rec.Header().Get("Content-Length"), n)
		}
	}
	var pole poleResponse
	get(t, h, "/api/poles/2", &pole)
	if pole.Pole.LastTemp != 31 || pole.Pole.MaxTemp != 31 {
		t.Errorf("pole 2 last/max temp = %g/%g, want its previous finite 31", pole.Pole.LastTemp, pole.Pole.MaxTemp)
	}
	get(t, h, "/api/poles/3", &pole)
	if pole.Pole.LastTemp != 31.5 || pole.Pole.MaxTemp != 31.5 {
		t.Errorf("pole 3 last/max temp = %g/%g, want 31.5: +Inf must not pin MaxTemp", pole.Pole.LastTemp, pole.Pole.MaxTemp)
	}

	// History keeps what was reported; JSON carries it as null.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/history?pole=2&series=pole_temp_c&from=0&to=9223372036854775807", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("history of pole 2: status %d body %q", rec.Code, rec.Body.String())
	}
	var hist HistoryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Samples) != 2 || float64(hist.Samples[0].V) != 31 || !math.IsNaN(float64(hist.Samples[1].V)) {
		t.Errorf("pole 2 pole_temp_c samples %+v, want 31 then null", hist.Samples)
	}

	if got := s.Alerts(); len(got) != 0 {
		t.Errorf("non-finite readings raised %d alerts: %+v", len(got), got)
	}
}
