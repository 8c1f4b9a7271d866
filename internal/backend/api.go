// The campus query API: an HTTP/JSON surface over the backend's
// immutable snapshots for dashboards and safety staff — how crowded is
// it, where? Every endpoint reads the current snapshot with a single
// atomic load and serves from that private copy, so heavy read traffic
// (thousands of QPS of dashboard polling) contends with the report
// ingest path on nothing at all: zero shard-lock acquisitions on the
// read path, pinned by test. The hot parameterless endpoints serve
// pre-serialized bodies straight from the snapshot's response cache
// (respcache.go) with zero per-request allocations; a zone's body is cut
// from the row bytes already in the listing; other parameterized
// requests fall through to a pooled-encoder path that reuses
// buffer+encoder pairs instead of building a fresh json.Encoder per
// request.
package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// apiObs instruments the query API; nil fields make updates no-ops.
type apiObs struct {
	requests map[string]*obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	// Response-cache outcome counters, over the cacheable endpoints
	// only: hit = served a pre-serialized body, notModified = answered
	// 304 from the ETag check, miss = fell through to the encoder path
	// (a /api/top k the cache does not hold).
	cacheHit, cacheMiss, cacheNotModified *obs.Counter
}

// apiEndpoints is the label set under backend_api_requests_total.
var apiEndpoints = []string{"campus", "poles", "pole", "zones", "zone", "top", "alerts", "history", "history_series"}

// cacheableEndpoints marks the endpoints the response cache can answer;
// only these count toward the cache hit/miss series.
var cacheableEndpoints = map[string]bool{"campus": true, "poles": true, "zones": true, "top": true}

func newAPIObs(reg *obs.Registry) apiObs {
	m := apiObs{requests: make(map[string]*obs.Counter, len(apiEndpoints))}
	for _, ep := range apiEndpoints {
		m.requests[ep] = reg.Counter("backend_api_requests_total", "query API requests served, by endpoint", obs.L("endpoint", ep))
	}
	m.errors = reg.Counter("backend_api_errors_total", "query API requests answered with a non-2xx status")
	m.latency = reg.Histogram("backend_api_request_seconds", "query API request handling latency", obs.LatencyBuckets())
	const cacheHelp = "response cache outcomes on cacheable endpoints, by result"
	m.cacheHit = reg.Counter("backend_api_cache_total", cacheHelp, obs.L("result", "hit"))
	m.cacheMiss = reg.Counter("backend_api_cache_total", cacheHelp, obs.L("result", "miss"))
	m.cacheNotModified = reg.Counter("backend_api_cache_total", cacheHelp, obs.L("result", "not_modified"))
	return m
}

// snapshotMeta stamps every response with the snapshot it was served
// from, so a dashboard can detect staleness (age = now − built_at) and
// correlate pages. It carries nothing request-dependent: the same
// snapshot always serializes to the same bytes, which is what lets the
// response cache serve pre-serialized bodies bit-identical to the
// encoder path (and what makes snapshot_seq usable as the ETag).
type snapshotMeta struct {
	SnapshotSeq uint64    `json:"snapshot_seq"`
	BuiltAt     time.Time `json:"built_at"`
}

func meta(snap *Snapshot) snapshotMeta {
	return snapshotMeta{SnapshotSeq: snap.Seq, BuiltAt: snap.BuiltAt}
}

// The endpoint response bodies. Named (rather than inline literals in
// the handlers) so the response cache pre-serializes the very same
// types the fall-through path encodes.
type campusResponse struct {
	snapshotMeta
	Campus CampusStats `json:"campus"`
}

type polesResponse struct {
	snapshotMeta
	Poles []*PoleStats `json:"poles"`
}

type poleResponse struct {
	snapshotMeta
	Pole PoleStats `json:"pole"`
}

type zonesResponse struct {
	snapshotMeta
	Zones []ZoneStats `json:"zones"`
}

type zoneResponse struct {
	snapshotMeta
	Zone  ZoneStats   `json:"zone"`
	Poles []PoleStats `json:"poles"`
}

type topResponse struct {
	snapshotMeta
	K     int         `json:"k"`
	Poles []PoleStats `json:"poles"`
}

type alertsResponse struct {
	snapshotMeta
	Total  int          `json:"total"`
	Alerts []wire.Alert `json:"alerts"`
}

// APIHandler returns the campus query API:
//
//	GET /api/campus        campus-wide rollup
//	GET /api/poles         every pole's aggregates (by pole ID)
//	GET /api/poles/{id}    one pole
//	GET /api/zones         per-zone rollups (by zone name)
//	GET /api/zones/{zone}  one zone's rollup plus its poles
//	GET /api/top?k=N       the N busiest poles by current count (default 10)
//	GET /api/alerts?limit=N  the most recent alerts (default 100)
//	GET /api/history?pole=ID&series=NAME&res=raw|DUR  raw or downsampled
//	       history reads over the FTDC-style store (history.go; 404
//	       unless Config.History enables capture)
//	GET /api/history/series?pole=ID  the pole's captured series
//
// The snapshot endpoints are served entirely from the current snapshot
// — the parameterless ones (campus, poles, zones, top with the default
// k) from its pre-serialized response cache, with an ETag of the quoted
// snapshot sequence and If-None-Match answered 304. The history
// endpoints decode immutable sealed chunks plus one series' hot tail.
// Neither may touch a registry shard lock (the only other lock is the
// alert log's own mutex, for the /api/alerts copy).
func (s *Server) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/campus", s.api("campus", s.handleCampus))
	mux.HandleFunc("GET /api/poles", s.api("poles", s.handlePoles))
	mux.HandleFunc("GET /api/poles/{id}", s.api("pole", s.handlePole))
	mux.HandleFunc("GET /api/zones", s.api("zones", s.handleZones))
	mux.HandleFunc("GET /api/zones/{zone}", s.api("zone", s.handleZone))
	mux.HandleFunc("GET /api/top", s.api("top", s.handleTop))
	mux.HandleFunc("GET /api/alerts", s.api("alerts", s.handleAlerts))
	mux.HandleFunc("GET /api/history", s.api("history", s.handleHistory))
	mux.HandleFunc("GET /api/history/series", s.api("history_series", s.handleHistorySeries))
	return mux
}

func (s *Server) handleCampus(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	return http.StatusOK, campusResponse{meta(snap), snap.Campus}
}

func (s *Server) handlePoles(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	return http.StatusOK, polesResponse{meta(snap), snap.Poles}
}

func (s *Server) handlePole(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		return http.StatusBadRequest, apiError{Error: "pole id must be a uint32"}
	}
	p, ok := snap.Pole(uint32(id))
	if !ok {
		return http.StatusNotFound, apiError{Error: fmt.Sprintf("pole %d not in snapshot", id)}
	}
	return http.StatusOK, poleResponse{meta(snap), p}
}

func (s *Server) handleZones(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	return http.StatusOK, zonesResponse{meta(snap), snap.Zones}
}

func (s *Server) handleZone(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	name := r.PathValue("zone")
	body, ok := snap.zoneBody(name)
	if !ok {
		return http.StatusNotFound, apiError{Error: fmt.Sprintf("zone %q not in snapshot", name)}
	}
	return http.StatusOK, body
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	k := CachedTopK
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return http.StatusBadRequest, apiError{Error: "k must be a positive integer"}
		}
		k = n
	}
	return http.StatusOK, topResponse{meta(snap), k, snap.TopK(k)}
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request, snap *Snapshot) (int, any) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return http.StatusBadRequest, apiError{Error: "limit must be a positive integer"}
		}
		limit = n
	}
	total, alerts := s.recentAlerts(limit)
	return http.StatusOK, alertsResponse{meta(snap), total, alerts}
}

// apiError is the JSON body of a non-2xx answer.
type apiError struct {
	Error string `json:"error"`
}

// apiEncoder is a pooled buffer+encoder pair for the fall-through path:
// reused across requests so serving a parameterized endpoint costs no
// fresh json.Encoder or buffer growth at steady state.
type apiEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &apiEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encodedBody is a response body already serialized as writeJSON would
// serialize its value (zoneBody cuts one from the listing).
type encodedBody []byte

// writeJSON serializes body through a pooled encoder, then writes it
// with an explicit Content-Length; an encodedBody is written as it is.
// The encoder configuration matches encodeBody exactly, keeping
// fall-through bodies bit-identical to their cached counterparts.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, ok := body.(encodedBody)
	if !ok {
		e := encPool.Get().(*apiEncoder)
		defer encPool.Put(e)
		e.buf.Reset()
		if err := e.enc.Encode(body); err != nil {
			http.Error(w, `{"error":"response serialization failed"}`, http.StatusInternalServerError)
			return
		}
		b = e.buf.Bytes()
	}
	h := w.Header()
	h["Content-Type"] = headerContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// api wraps an endpoint with snapshot resolution, response-cache
// dispatch, JSON serialization, and instrumentation. One atomic load
// yields the snapshot AND its pre-serialized cache, so a cached answer
// can never pair a body with another snapshot's ETag.
func (s *Server) api(endpoint string, h func(http.ResponseWriter, *http.Request, *Snapshot) (int, any)) http.HandlerFunc {
	cacheable := cacheableEndpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		snap := s.Current()
		var status int
		var entry *cacheEntry
		if cacheable {
			entry = snap.cache.lookup(endpoint, r)
		}
		if entry != nil {
			status = serveCached(w, r, snap.cache, entry)
			if status == http.StatusNotModified {
				s.apiM.cacheNotModified.Inc()
			} else {
				s.apiM.cacheHit.Inc()
			}
		} else {
			if cacheable {
				s.apiM.cacheMiss.Inc()
			}
			var body any
			status, body = h(w, r, snap)
			writeJSON(w, status, body)
		}
		s.apiM.requests[endpoint].Inc()
		if status >= 300 && status != http.StatusNotModified {
			s.apiM.errors.Inc()
		}
		s.apiM.latency.ObserveDuration(time.Since(t0))
	}
}

// recentAlerts copies the newest limit alerts (and the lifetime total,
// including entries the bounded ring has evicted) out of the alert log
// under its own mutex — never a shard lock.
func (s *Server) recentAlerts(limit int) (int, []wire.Alert) {
	return s.alog.recent(limit)
}

// The query API server's deadlines: a client has apiReadHeaderTimeout to
// send a request header, and a keep-alive connection with no request for
// apiIdleTimeout is closed, so a client that stalls mid-header or parks
// connections cannot hold a goroutine and a socket for ever.
const (
	apiReadHeaderTimeout = 10 * time.Second
	apiIdleTimeout       = 2 * time.Minute
)

// serveAPI binds addr and serves the query API on it until Close.
func (s *Server) serveAPI(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("backend: api listener: %w", err)
	}
	s.apiLn = ln
	s.apiSrv = &http.Server{
		Handler:           s.APIHandler(),
		ReadHeaderTimeout: apiReadHeaderTimeout,
		IdleTimeout:       apiIdleTimeout,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.apiSrv.Serve(ln)
	}()
	return nil
}

// APIAddr returns the bound query API address, or "" when the API was
// not configured.
func (s *Server) APIAddr() string {
	if s.apiLn == nil {
		return ""
	}
	return s.apiLn.Addr().String()
}
