package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"hawccc/internal/wire"
)

// newAPITestServer stands up a backend with the snapshot loop disabled
// (SnapshotInterval < 0) and seeds it with deterministic pole state via
// the internal write path, then publishes one snapshot. Tests drive the
// query API through APIHandler directly — no HTTP listener needed.
func newAPITestServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Poles 1..6 alternate between two zones; pole id doubles as its
	// current count so TopK ordering is fully determined.
	for id := uint32(1); id <= 6; id++ {
		zone := "quad"
		if id%2 == 0 {
			zone = "stadium"
		}
		s.withPole(id, func(p *PoleStats) {
			p.Location = fmt.Sprintf("walkway-%d", id)
			p.Zone = zone
		})
		s.recordCount(wire.CountReport{PoleID: id, Seq: 1, Count: id})
	}
	s.alog.add(wire.Alert{PoleID: 6, Kind: wire.AlertCrowding, Message: "crowding at pole 6"})
	s.alog.add(wire.Alert{PoleID: 2, Kind: wire.AlertOverheat, Message: "overheat at pole 2"})
	s.RebuildSnapshot()
	return s
}

// get performs one request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, path string, into any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", path, ct)
	}
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: decode: %v (body %q)", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestAPICampusAndPoles(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	var campus struct {
		SnapshotSeq uint64      `json:"snapshot_seq"`
		Campus      CampusStats `json:"campus"`
	}
	if code := get(t, h, "/api/campus", &campus); code != http.StatusOK {
		t.Fatalf("campus: status %d", code)
	}
	if campus.SnapshotSeq == 0 {
		t.Error("campus response missing snapshot_seq")
	}
	// Counts are 1+2+...+6.
	if campus.Campus.Poles != 6 || campus.Campus.Count != 21 || campus.Campus.Zones != 2 {
		t.Errorf("campus rollup: %+v", campus.Campus)
	}

	var poles struct {
		Poles []PoleStats `json:"poles"`
	}
	if code := get(t, h, "/api/poles", &poles); code != http.StatusOK {
		t.Fatalf("poles: status %d", code)
	}
	if len(poles.Poles) != 6 || poles.Poles[0].PoleID != 1 || poles.Poles[5].PoleID != 6 {
		t.Errorf("poles not sorted by ID: %+v", poles.Poles)
	}

	var one struct {
		Pole PoleStats `json:"pole"`
	}
	if code := get(t, h, "/api/poles/4", &one); code != http.StatusOK {
		t.Fatalf("pole 4: status %d", code)
	}
	if one.Pole.Location != "walkway-4" || one.Pole.Zone != "stadium" || one.Pole.LastCount != 4 {
		t.Errorf("pole 4: %+v", one.Pole)
	}

	var apiErr apiError
	if code := get(t, h, "/api/poles/99", &apiErr); code != http.StatusNotFound || apiErr.Error == "" {
		t.Errorf("unknown pole: status %d body %+v", code, apiErr)
	}
	if code := get(t, h, "/api/poles/notanumber", &apiErr); code != http.StatusBadRequest {
		t.Errorf("malformed pole id: status %d", code)
	}
}

func TestAPIZonesAndTop(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	var zones struct {
		Zones []ZoneStats `json:"zones"`
	}
	if code := get(t, h, "/api/zones", &zones); code != http.StatusOK {
		t.Fatalf("zones: status %d", code)
	}
	// Sorted by name: quad (odd poles 1,3,5) then stadium (2,4,6).
	if len(zones.Zones) != 2 || zones.Zones[0].Zone != "quad" || zones.Zones[1].Zone != "stadium" {
		t.Fatalf("zones: %+v", zones.Zones)
	}
	if zones.Zones[0].Count != 9 || zones.Zones[1].Count != 12 {
		t.Errorf("zone counts: %+v", zones.Zones)
	}

	var zone struct {
		Zone  ZoneStats   `json:"zone"`
		Poles []PoleStats `json:"poles"`
	}
	if code := get(t, h, "/api/zones/stadium", &zone); code != http.StatusOK {
		t.Fatalf("zone stadium: status %d", code)
	}
	if zone.Zone.Poles != 3 || len(zone.Poles) != 3 {
		t.Errorf("zone stadium: %+v with %d poles", zone.Zone, len(zone.Poles))
	}
	if code := get(t, h, "/api/zones/nowhere", nil); code != http.StatusNotFound {
		t.Errorf("unknown zone: status %d", code)
	}

	var top struct {
		K     int         `json:"k"`
		Poles []PoleStats `json:"poles"`
	}
	if code := get(t, h, "/api/top?k=3", &top); code != http.StatusOK {
		t.Fatalf("top: status %d", code)
	}
	if top.K != 3 || len(top.Poles) != 3 {
		t.Fatalf("top: k=%d with %d poles", top.K, len(top.Poles))
	}
	// Busiest by current count desc: poles 6, 5, 4.
	for i, want := range []uint32{6, 5, 4} {
		if top.Poles[i].PoleID != want {
			t.Errorf("top[%d] = pole %d, want %d", i, top.Poles[i].PoleID, want)
		}
	}
	if code := get(t, h, "/api/top?k=0", nil); code != http.StatusBadRequest {
		t.Errorf("top k=0: status %d", code)
	}

	var alerts struct {
		Total  int          `json:"total"`
		Alerts []wire.Alert `json:"alerts"`
	}
	if code := get(t, h, "/api/alerts?limit=1", &alerts); code != http.StatusOK {
		t.Fatalf("alerts: status %d", code)
	}
	if alerts.Total != 2 || len(alerts.Alerts) != 1 || alerts.Alerts[0].PoleID != 2 {
		t.Errorf("alerts: %+v", alerts)
	}
}

// TestAPIStalenessBoundedBySnapshot pins the staleness model: reads
// reflect the published snapshot, not live shard state, until the next
// rebuild publishes a newer one.
func TestAPIStalenessBoundedBySnapshot(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	s.recordCount(wire.CountReport{PoleID: 1, Seq: 2, Count: 50})

	var campus struct {
		Campus CampusStats `json:"campus"`
	}
	get(t, h, "/api/campus", &campus)
	if campus.Campus.Count != 21 {
		t.Errorf("pre-rebuild read saw live state: count %d, want 21", campus.Campus.Count)
	}

	s.RebuildSnapshot()
	get(t, h, "/api/campus", &campus)
	if campus.Campus.Count != 70 { // 21 - 1 + 50
		t.Errorf("post-rebuild count %d, want 70", campus.Campus.Count)
	}
}

// TestAPIReadPathAcquiresNoShardLocks is the acceptance check for the
// snapshot-serving design: a burst across every endpoint must not take a
// single registry shard lock. The registry counts every acquisition; the
// snapshot loop is disabled, so any nonzero delta here is the read path
// reaching into the shards.
func TestAPIReadPathAcquiresNoShardLocks(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	before := s.reg.lockAcquisitions.Load()
	paths := []string{
		"/api/campus", "/api/poles", "/api/poles/3", "/api/poles/99",
		"/api/zones", "/api/zones/quad", "/api/zones/nowhere",
		"/api/top?k=5", "/api/alerts", "/api/alerts?limit=1",
	}
	for i := 0; i < 100; i++ {
		for _, p := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		}
	}
	if delta := s.reg.lockAcquisitions.Load() - before; delta != 0 {
		t.Fatalf("query API read path acquired %d shard locks across 1000 requests, want 0", delta)
	}
}

// TestZoneServedFromListing: /api/zones/{zone} is cut from the row bytes
// already in the listing, and is byte for byte what the encoder writes for
// the zone's rollup and its rows, on a full build and on the patches after
// it; ZonePoles still returns the zone's rows in ID order.
func TestZoneServedFromListing(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	zones := []string{"quad", "stadium & field", "library <west>"}
	for id := uint32(1); id <= 30; id++ {
		s.withPole(id, func(p *PoleStats) {
			p.Location = fmt.Sprintf("walk %d <\"gate\">", id)
			p.Zone = zones[id%3]
		})
		s.recordCount(wire.CountReport{PoleID: id, Seq: 1, Count: id})
	}
	h := s.APIHandler()
	for round := 0; round < 3; round++ {
		snap := s.RebuildSnapshot()
		for _, name := range zones {
			var byScan []PoleStats
			for _, p := range snap.Poles {
				if p.Zone == name {
					byScan = append(byScan, *p)
				}
			}
			if got := snap.ZonePoles(name); !reflect.DeepEqual(got, byScan) {
				t.Errorf("round %d: ZonePoles(%q) returned %d rows, a scan of the rows finds %d", round, name, len(got), len(byScan))
			}
			z, _ := snapZone(snap, name)
			want := encodeBody(zoneResponse{meta(snap), z, byScan})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/zones/"+url.PathEscape(name), nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("round %d: zone %q: status %d\nserved:  %q\nencoder: %q", round, name, rec.Code, rec.Body.Bytes(), want)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("round %d: zone %q: Content-Length %q, body is %d bytes", round, name, got, rec.Body.Len())
			}
		}
		s.recordCount(wire.CountReport{PoleID: uint32(7*round + 1), Seq: 2, Count: 40})
		s.recordTelemetry(wire.Telemetry{PoleID: uint32(7*round + 2), PoleTemp: 41.25})
	}
}

// TestAPIServerSetsDeadlines: the query API server Listen starts bounds
// how long a client may take over a request header and how long an idle
// keep-alive connection is kept.
func TestAPIServerSetsDeadlines(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", APIAddr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if h := s.apiSrv; h.ReadHeaderTimeout <= 0 || h.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want both set", h.ReadHeaderTimeout, h.IdleTimeout)
	}
}
