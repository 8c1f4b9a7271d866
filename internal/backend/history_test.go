package backend

import (
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// newHistoryTestServer stands up a backend with history capture on and
// the snapshot loop off, so tests drive rebuilds deterministically.
func newHistoryTestServer(t *testing.T, reg *obs.Registry) *Server {
	t.Helper()
	s, err := Listen(Config{
		Addr:             "127.0.0.1:0",
		SnapshotInterval: -1,
		History:          &tsdb.Config{},
		Obs:              reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sendReports streams count reports and telemetry for pole 1 at fixed
// wire timestamps and waits for the last ack, so every message has been
// recorded when it returns.
func sendReports(t *testing.T, s *Server, temps []float64) (countTS []int64, counts []float64) {
	t.Helper()
	c := dialBackend(t, s)
	base := time.Unix(1700000000, 0).UTC()
	for i, temp := range temps {
		ts := base.Add(time.Duration(i) * time.Second)
		tm := wire.Telemetry{PoleID: 1, Timestamp: ts, PoleTemp: temp, Ambient: temp - 5}
		if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(tm)); err != nil {
			t.Fatal(err)
		}
		r := wire.CountReport{PoleID: 1, Seq: uint64(i + 1), Timestamp: ts, Count: uint32(i * i), Clusters: 1, LatencyUS: 900}
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(r)); err != nil {
			t.Fatal(err)
		}
		countTS = append(countTS, ts.UnixNano())
		counts = append(counts, float64(i*i))
	}
	// Telemetry is not acked; the count acks order-fence both streams.
	for range temps {
		typ, _, err := c.Recv()
		if err != nil || typ != wire.MsgAck {
			t.Fatalf("recv: type %d err %v", typ, err)
		}
	}
	return countTS, counts
}

// TestHistoryRawBitIdentical is the acceptance pin: what comes back from
// /api/history?res=raw — through chunk encode/decode AND the JSON wire
// format — is bit-identical to the float64s the pole reported.
func TestHistoryRawBitIdentical(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	// Values chosen to break any path that rounds, truncates, or
	// reformats: non-representable decimals, last-ulp neighbors,
	// negative zero, subnormals, huge magnitudes.
	temps := []float64{
		0.1 + 0.2,
		math.Pi,
		math.Nextafter(math.Pi, 4),
		math.Copysign(0, -1),
		5e-324,
		-1.7976931348623157e308,
		42,
	}
	countTS, counts := sendReports(t, s, temps)
	s.History().SealAll()
	h := s.APIHandler()

	var raw HistoryResponse
	if code := get(t, h, "/api/history?pole=1&series=pole_temp_c&from=0&to=9223372036854775807&res=raw", &raw); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if raw.Res != "raw" || raw.Total != len(temps) || raw.Count != len(temps) {
		t.Fatalf("response meta %+v", raw)
	}
	for i, smp := range raw.Samples {
		if smp.T != countTS[i] {
			t.Errorf("sample %d: t=%d, want %d", i, smp.T, countTS[i])
		}
		if math.Float64bits(float64(smp.V)) != math.Float64bits(temps[i]) {
			t.Errorf("sample %d: bits %016x, want %016x (%v vs %v)",
				i, math.Float64bits(float64(smp.V)), math.Float64bits(temps[i]), float64(smp.V), temps[i])
		}
	}

	var cnt HistoryResponse
	if code := get(t, h, "/api/history?pole=1&series=count&from=0&to=9223372036854775807", &cnt); code != http.StatusOK {
		t.Fatalf("count history: status %d", code)
	}
	for i, smp := range cnt.Samples {
		if smp.T != countTS[i] || float64(smp.V) != counts[i] {
			t.Errorf("count %d: (%d, %v), want (%d, %v)", i, smp.T, smp.V, countTS[i], counts[i])
		}
	}
}

// TestHistoryDownsampledMatchesReference checks the bucketed read against
// tsdb.Downsample over the raw store samples — same grid, same
// NaN-skipping min/max, bit-equal means and lasts.
func TestHistoryDownsampledMatchesReference(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	temps := make([]float64, 30)
	for i := range temps {
		temps[i] = 20 + 7*math.Sin(float64(i)/4) + 0.01*float64(i)
	}
	sendReports(t, s, temps)

	from, to := int64(0), int64(math.MaxInt64)
	sr, ok := s.History().Lookup(1, "pole_temp_c")
	if !ok {
		t.Fatal("pole_temp_c not captured")
	}
	rawSamples, err := sr.QueryRaw(from, to)
	if err != nil {
		t.Fatal(err)
	}
	step := 5 * time.Second
	want := tsdb.Downsample(rawSamples, from, int64(step))

	var resp HistoryResponse
	url := fmt.Sprintf("/api/history?pole=1&series=pole_temp_c&from=%d&to=%d&res=%s", from, to, step)
	if code := get(t, s.APIHandler(), url, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Res != step.String() || len(resp.Buckets) != len(want) {
		t.Fatalf("%d buckets (res %q), want %d", len(resp.Buckets), resp.Res, len(want))
	}
	for i, b := range resp.Buckets {
		w := want[i]
		if b.T != w.TS || b.Count != w.Count ||
			math.Float64bits(float64(b.Min)) != math.Float64bits(w.Min) ||
			math.Float64bits(float64(b.Max)) != math.Float64bits(w.Max) ||
			math.Float64bits(float64(b.Mean)) != math.Float64bits(w.Mean) ||
			math.Float64bits(float64(b.Last)) != math.Float64bits(w.Last) {
			t.Errorf("bucket %d: %+v, want %+v", i, b, w)
		}
	}
}

func TestHistoryLimitKeepsNewest(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	temps := make([]float64, 20)
	for i := range temps {
		temps[i] = float64(i)
	}
	countTS, _ := sendReports(t, s, temps)

	var resp HistoryResponse
	if code := get(t, s.APIHandler(), "/api/history?pole=1&series=pole_temp_c&from=0&to=9223372036854775807&limit=5", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Total != 20 || resp.Count != 5 || len(resp.Samples) != 5 {
		t.Fatalf("total/count = %d/%d, want 20/5", resp.Total, resp.Count)
	}
	if resp.Samples[0].T != countTS[15] || float64(resp.Samples[4].V) != 19 {
		t.Errorf("limit kept %+v, want the 5 newest", resp.Samples)
	}
}

func TestHistorySeriesListing(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	sendReports(t, s, []float64{20, 21})

	var resp HistorySeriesResponse
	if code := get(t, s.APIHandler(), "/api/history/series?pole=1", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	names := make([]string, len(resp.Series))
	for i, m := range resp.Series {
		names[i] = m.Name
	}
	want := []string{"ambient_c", "clusters", "count", "edge_latency_us", "pole_temp_c"}
	if len(names) != len(want) {
		t.Fatalf("series %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("series %v, want %v (sorted)", names, want)
		}
	}
	for _, m := range resp.Series {
		if m.Samples != 2 {
			t.Errorf("series %s has %d samples, want 2", m.Name, m.Samples)
		}
	}
}

func TestHistoryBadRequests(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	sendReports(t, s, []float64{20})
	h := s.APIHandler()
	badReqs := []string{
		"/api/history",                                  // no pole
		"/api/history?pole=x&series=count",              // bad pole
		"/api/history?pole=1",                           // no series
		"/api/history?pole=1&series=count&res=nope",     // bad res
		"/api/history?pole=1&series=count&res=-5s",      // negative res
		"/api/history?pole=1&series=count&window=bogus", // bad window
		"/api/history?pole=1&series=count&from=5",       // from without to
		"/api/history?pole=1&series=count&from=9&to=2",  // inverted range
		"/api/history?pole=1&series=count&limit=0",      // bad limit
		"/api/history/series",                           // no pole
	}
	for _, url := range badReqs {
		var e apiError
		if code := get(t, h, url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", url, code, e)
		}
	}
	if code := get(t, h, "/api/history?pole=1&series=never_captured", nil); code != http.StatusNotFound {
		t.Errorf("unknown series: status %d, want 404", code)
	}
	if code := get(t, h, "/api/history?pole=99&series=count", nil); code != http.StatusNotFound {
		t.Errorf("unknown pole: status %d, want 404", code)
	}
}

func TestHistoryDisabledReturns404(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code := get(t, s.APIHandler(), "/api/history?pole=1&series=count", nil); code != http.StatusNotFound {
		t.Errorf("history on a no-history server: status %d, want 404", code)
	}
	if s.History() != nil {
		t.Error("History() non-nil without Config.History")
	}
}

// TestHistoryReadsTakeNoShardLocks extends the read-path contract to the
// history endpoints: a burst of raw and bucketed queries acquires zero
// pole-registry shard locks (the tsdb store has its own sharding).
func TestHistoryReadsTakeNoShardLocks(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	sendReports(t, s, []float64{20, 21, 22, 23})
	h := s.APIHandler()

	before := s.reg.lockAcquisitions.Load()
	for i := 0; i < 50; i++ {
		get(t, h, "/api/history?pole=1&series=count&from=0&to=9223372036854775807", nil)
		get(t, h, "/api/history?pole=1&series=pole_temp_c&from=0&to=9223372036854775807&res=2s", nil)
		get(t, h, "/api/history/series?pole=1", nil)
	}
	if after := s.reg.lockAcquisitions.Load(); after != before {
		t.Fatalf("history reads acquired %d registry shard locks, want 0", after-before)
	}
}

// TestHistoryVisibleWhenAcked pins the one write path: a backend with
// every loop at its default, one real connection, and the moment a
// report's ack is read its samples — and the telemetry sent before it —
// are served by /api/history, bit-identical. No flush, no tick, no seam.
func TestHistoryVisibleWhenAcked(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", History: &tsdb.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialBackend(t, s)

	ts := time.Unix(1700000000, 0).UTC()
	temp := 0.1 + 0.2
	if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 1, Location: "walk", Zone: "z"})); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.MsgTelemetry, wire.EncodeTelemetry(wire.Telemetry{PoleID: 1, Timestamp: ts, PoleTemp: temp, Ambient: 25})); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(wire.CountReport{PoleID: 1, Seq: 1, Timestamp: ts, Count: 7, Clusters: 9, LatencyUS: 900})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
		t.Fatalf("recv: type %d err %v", typ, err)
	}

	h := s.APIHandler()
	for series, want := range map[string]float64{"count": 7, "pole_temp_c": temp} {
		var resp HistoryResponse
		if code := get(t, h, "/api/history?pole=1&series="+series+"&from=0&to=9223372036854775807", &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", series, code)
		}
		if resp.Count != 1 || len(resp.Samples) != 1 {
			t.Fatalf("%s: %d samples readable at the ack, want 1", series, resp.Count)
		}
		if got := resp.Samples[0]; got.T != ts.UnixNano() || math.Float64bits(float64(got.V)) != math.Float64bits(want) {
			t.Errorf("%s: sample (%d, %v), want (%d, %v)", series, got.T, got.V, ts.UnixNano(), want)
		}
	}
	if got := s.History().Stats().Appended; got != 5 {
		t.Errorf("store holds %d samples at the ack, want 5 (3 per report + 2 per telemetry)", got)
	}
}

// TestFutureTimestampDoesNotPoisonHistory: Series.Append clamps earlier
// timestamps up to the series' latest, so one report stamped a day ahead
// (a pole clock before its NTP fix) must not drag the honest reports
// after it to tomorrow, out of every window an operator asks for. It is
// stored at receive time; the rest keep their own timestamps.
func TestFutureTimestampDoesNotPoisonHistory(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	c := dialBackend(t, s)

	start := time.Now()
	stamps := []time.Time{start.Add(24 * time.Hour), start, start, start}
	for i, ts := range stamps {
		r := wire.CountReport{PoleID: 1, Seq: uint64(i + 1), Timestamp: ts, Count: uint32(i + 1)}
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(r)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
			t.Fatalf("report %d: recv type %d err %v", i+1, typ, err)
		}
	}

	var resp HistoryResponse
	if code := get(t, s.APIHandler(), "/api/history?pole=1&series=count&window=1m", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Count != len(stamps) {
		t.Fatalf("the last minute holds %d samples, want all %d: %+v", resp.Count, len(stamps), resp.Samples)
	}
	now := time.Now().UnixNano()
	for i, smp := range resp.Samples {
		if float64(smp.V) != float64(i+1) {
			t.Errorf("sample %d: value %v, want %d", i, smp.V, i+1)
		}
		if i > 0 && smp.T < resp.Samples[i-1].T {
			t.Errorf("sample %d: timestamp %d precedes its predecessor's %d", i, smp.T, resp.Samples[i-1].T)
		}
		if ahead := time.Duration(smp.T - now); ahead > maxHistorySkew {
			t.Errorf("sample %d stored %v ahead of the receive clock", i, ahead)
		}
	}
}
