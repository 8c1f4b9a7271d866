package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// cacheablePaths are the requests the response cache answers from
// pre-serialized bodies (the default-k /api/top both with and without
// the explicit parameter).
var cacheablePaths = []string{"/api/campus", "/api/poles", "/api/zones", "/api/top", "/api/top?k=10"}

// TestCachedBodiesBitIdentical is the correctness contract of the
// response cache: for every cacheable request, the pre-serialized body
// must be byte-for-byte what writeJSON produces from the endpoint
// handler's return value for the same snapshot — the fall-through path
// uncommon parameters still take. Anything less and a dashboard's parse
// behavior would depend on which path answered.
func TestCachedBodiesBitIdentical(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()
	handlers := map[string]func(http.ResponseWriter, *http.Request, *Snapshot) (int, any){
		"/api/campus": s.handleCampus,
		"/api/poles":  s.handlePoles,
		"/api/zones":  s.handleZones,
		"/api/top":    s.handleTop,
	}

	for _, path := range cacheablePaths {
		req := httptest.NewRequest("GET", path, nil)
		cached := httptest.NewRecorder()
		h.ServeHTTP(cached, req)
		direct := httptest.NewRecorder()
		status, body := handlers[req.URL.Path](direct, req, s.Current())
		writeJSON(direct, status, body)

		if cached.Code != http.StatusOK || direct.Code != http.StatusOK {
			t.Fatalf("%s: status cached=%d direct=%d", path, cached.Code, direct.Code)
		}
		if cached.Body.String() != direct.Body.String() {
			t.Errorf("%s: cached body differs from encoder path\ncached: %q\ndirect: %q",
				path, cached.Body.String(), direct.Body.String())
		}
		if got := cached.Header().Get("Content-Length"); got != strconv.Itoa(cached.Body.Len()) {
			t.Errorf("%s: cached Content-Length %q, body is %d bytes", path, got, cached.Body.Len())
		}
		if got := direct.Header().Get("Content-Length"); got != strconv.Itoa(direct.Body.Len()) {
			t.Errorf("%s: direct Content-Length %q, body is %d bytes", path, got, direct.Body.Len())
		}
		if cached.Header().Get("ETag") == "" {
			t.Errorf("%s: cached response carries no ETag", path)
		}
	}

	// An uncommon k falls through: still a correct answer, but unkeyed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/top?k=3", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != "" {
		t.Errorf("top k=3: status %d etag %q, want 200 with no ETag", rec.Code, rec.Header().Get("ETag"))
	}
}

// TestAPIETagConditionalRequests pins the revalidation scheme: the ETag
// is the quoted snapshot sequence, a matching If-None-Match answers 304
// with an empty body, and a rebuild invalidates outstanding validators.
func TestAPIETagConditionalRequests(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest("GET", "/api/campus", nil))
	etag := first.Header().Get("ETag")
	var body struct {
		SnapshotSeq uint64 `json:"snapshot_seq"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if want := `"` + strconv.FormatUint(body.SnapshotSeq, 10) + `"`; etag != want {
		t.Fatalf("ETag %q, want quoted snapshot seq %q", etag, want)
	}

	cond := httptest.NewRequest("GET", "/api/campus", nil)
	cond.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, cond)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("matching If-None-Match: status %d with %d body bytes, want empty 304", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("ETag") != etag {
		t.Errorf("304 carries ETag %q, want %q", rec.Header().Get("ETag"), etag)
	}

	// A rebuild bumps the sequence; the stale validator must get a full
	// 200 with the new ETag.
	s.recordCount(wire.CountReport{PoleID: 1, Seq: 2, Count: 30})
	s.RebuildSnapshot()
	cond = httptest.NewRequest("GET", "/api/campus", nil)
	cond.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, cond)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("stale If-None-Match after rebuild: status %d, want full 200", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got == etag || got == "" {
		t.Errorf("post-rebuild ETag %q did not advance past %q", got, etag)
	}
}

// nullRW is a header-preserving no-op ResponseWriter for the allocation
// gate: its header map is allocated once and reused, matching what
// net/http gives a handler at steady state (the server pools header
// maps per connection).
type nullRW struct {
	h      http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(status int)      { w.status = status }

// TestCachedServeZeroAllocs is the tentpole's allocation gate: answering
// a cacheable request from the pre-serialized body — and answering a
// conditional revalidation with 304 — allocates nothing per request.
func TestCachedServeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	s := newAPITestServer(t)
	handler := s.api("campus", s.handleCampus)

	w := &nullRW{h: make(http.Header)}
	req := httptest.NewRequest("GET", "/api/campus", nil)
	handler(w, req) // warm the header map
	if w.status != http.StatusOK {
		t.Fatalf("warm-up status %d", w.status)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		handler(w, req)
	}); allocs != 0 {
		t.Errorf("cached serve allocated %.2f objects/request, want 0", allocs)
	}

	cond := httptest.NewRequest("GET", "/api/campus", nil)
	cond.Header.Set("If-None-Match", s.Current().cache.etag)
	handler(w, cond)
	if w.status != http.StatusNotModified {
		t.Fatalf("conditional warm-up status %d", w.status)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		handler(w, cond)
	}); allocs != 0 {
		t.Errorf("304 revalidation allocated %.2f objects/request, want 0", allocs)
	}
}

// TestRecordPathZeroAllocs is the write side's allocation gate: the
// history append is on the ack path, so recording a count report or a
// telemetry reading — row update, instruments and the store appends —
// allocates nothing. The window starts on sealed, empty hot buffers and
// makes fewer calls than a chunk holds (512 samples), so no chunk seal
// (which does allocate) falls inside it.
func TestRecordPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	s, err := Listen(Config{
		Addr:             "127.0.0.1:0",
		SnapshotInterval: -1,
		History:          &tsdb.Config{},
		Obs:              obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	now := time.Now()
	r := wire.CountReport{PoleID: 1, Seq: 1, Timestamp: now, Count: 3, Clusters: 4, LatencyUS: 900}
	tm := wire.Telemetry{PoleID: 1, Timestamp: now, PoleTemp: 30, Ambient: 25}
	const calls = 500 // AllocsPerRun adds one warm-up call: 501 appends per series
	s.recordCount(r)  // registers the pole and its five series
	s.History().SealAll()
	if allocs := testing.AllocsPerRun(calls, func() { s.recordCount(r) }); allocs != 0 {
		t.Errorf("recordCount allocated %.2f objects/report, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(calls, func() { s.recordTelemetry(tm) }); allocs != 0 {
		t.Errorf("recordTelemetry allocated %.2f objects/reading, want 0", allocs)
	}
	if got := s.History().Stats().Appended; got < 5*calls {
		t.Errorf("store holds %d samples, want at least %d: the gated path must be the one that appends", got, 5*calls)
	}
}

// TestSnapshotCacheConsistentUnderRebuild hammers the query API from
// reader goroutines while a writer rebuilds snapshots, asserting every
// response is internally consistent: its ETag always names the snapshot
// sequence inside its body, and a conditional hit never pairs a 304 with
// a body. Run under -race this also proves the pre-serialized cache is
// published atomically with its snapshot.
func TestSnapshotCacheConsistentUnderRebuild(t *testing.T) {
	s := newAPITestServer(t)
	h := s.APIHandler()

	const rebuilds = 200
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rebuilds; i++ {
			s.recordCount(wire.CountReport{PoleID: 3, Seq: uint64(i + 2), Count: uint32(i)})
			s.RebuildSnapshot()
		}
	}()

	readErr := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := cacheablePaths[g%len(cacheablePaths)]
			lastETag := ""
			for !done.Load() {
				req := httptest.NewRequest("GET", path, nil)
				if lastETag != "" && g%2 == 0 {
					req.Header.Set("If-None-Match", lastETag)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				etag := rec.Header().Get("ETag")
				switch rec.Code {
				case http.StatusNotModified:
					if rec.Body.Len() != 0 {
						readErr <- fmt.Errorf("%s: 304 with %d body bytes", path, rec.Body.Len())
						return
					}
				case http.StatusOK:
					var body struct {
						SnapshotSeq uint64 `json:"snapshot_seq"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
						readErr <- fmt.Errorf("%s: torn body: %v", path, err)
						return
					}
					if want := `"` + strconv.FormatUint(body.SnapshotSeq, 10) + `"`; etag != want {
						readErr <- fmt.Errorf("%s: ETag %s paired with body from snapshot %d", path, etag, body.SnapshotSeq)
						return
					}
				default:
					readErr <- fmt.Errorf("%s: status %d", path, rec.Code)
					return
				}
				lastETag = etag
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
}

// FuzzAppendRow holds the row encoder to json.Marshal, the encoder every
// body it is spliced into is defined by, over every field of a row: the
// strings through HTML escaping, U+2028/U+2029, invalid UTF-8 and every
// control byte; the floats at the edges of the encoder's 'f'/'e' switch
// and −0; LastSeen zero, in UTC and in a fixed non-UTC zone; model_version
// absent and present.
func FuzzAppendRow(f *testing.F) {
	var ctl []byte
	for c := byte(0); c < 0x20; c++ {
		ctl = append(ctl, c)
	}
	ctl = append(ctl, 0x7f, '"', '\\', '/')
	lineSeps := "a" + string(rune(0x2028)) + "b" + string(rune(0x2029))
	badUTF8 := string([]byte{'x', 0xff, 0xe2, 0x80, 'y', 0xc0})
	const ns = 1_760_000_000_123_456_789
	f.Add("walk <3> & \"gate\" > quad", "quad", uint32(1), 7, 3, int64(90), 12, int64(ns), int16(330), false, 31.5, 1e-7, 0, uint32(0))
	f.Add(lineSeps, badUTF8, uint32(1<<32-1), 1<<40, -1, int64(-1<<62), 0, int64(ns), int16(0), true, 1e21, math.Copysign(0, -1), 2, uint32(7))
	f.Add(string(ctl), "", uint32(0), 0, 0, int64(0), 0, int64(0), int16(-480), false, 9.999999e-7, 123456789e12, -3, uint32(1<<31))
	f.Add("", "stadium", uint32(42), 1, 1, int64(1), 1, int64(ns), int16(-59), false, -1e-300, 1e300, 1, uint32(0))
	f.Fuzz(func(t *testing.T, location, zone string, id uint32, reports, lastCount int, total int64, peak int,
		unixNano int64, offsetMin int16, zeroTime bool, lastTemp, maxTemp float64, alerts int, model uint32) {
		p := PoleStats{
			PoleID: id, Location: location, Zone: zone, Reports: reports, LastCount: lastCount, TotalCount: total,
			PeakCount: peak, LastTemp: lastTemp, MaxTemp: maxTemp, Alerts: alerts, ModelVersion: model,
		}
		if !zeroTime {
			p.LastSeen = time.Unix(0, unixNano).In(time.FixedZone("", int(offsetMin)*60))
		}
		want, err := json.Marshal(&p)
		if err != nil {
			t.Skip("the encoder refuses the row:", err) // NaN, ±Inf, or a zone a day or more off UTC
		}
		if got := appendRow([]byte("["), &p); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendRow wrote\n%s\njson.Marshal writes\n%s", got[1:], want)
		}
	})
}
