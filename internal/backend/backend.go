// Package backend implements the private campus cloud of Figure 1: a TCP
// server that receives crowd-count reports and compartment telemetry from
// the smart blue light poles, keeps per-pole aggregates, and raises alerts
// on unusual crowding (the safety scenario the paper's introduction
// motivates) and on compartment overheating (Section VII-D).
//
// State is held in a sharded pole registry (registry.go): pole IDs hash
// to one of N independently locked shards, so report streams from a
// 10k-pole fleet contend only when two poles collide on a shard. Reads
// never touch the shards — when rows change, a publisher patches them
// into the next immutable campus Snapshot (snapshot.go), published
// through one atomic pointer, and the HTTP/JSON query API (api.go)
// answers every dashboard request from that snapshot alone.
package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// Config parameterizes the backend.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// APIAddr, when non-empty, serves the HTTP/JSON campus query API on
	// this address (see APIHandler for the endpoints). Empty leaves the
	// API unbound; APIHandler can still be mounted on an external mux.
	APIAddr string
	// SnapshotInterval is the longest a written row waits for the
	// snapshot that publishes it to the query API; the publisher builds
	// as soon as rows change and as often as its pacing allows
	// (publishLoop). 0 selects DefaultSnapshotInterval; negative disables
	// the publisher entirely (snapshots then build only through
	// RebuildSnapshot): a determinism seam kept for tests and for the
	// benchmark's solo-ingest ledger, which no deployment sets.
	SnapshotInterval time.Duration
	// CrowdingLimit raises AlertCrowding when a single report's count
	// meets or exceeds it (0 disables).
	CrowdingLimit int
	// OverheatLimit raises AlertOverheat when a telemetry reading meets
	// or exceeds it in °C (0 disables). The Coral Dev Board is rated to
	// 50 °C.
	OverheatLimit float64
	// History, when non-nil, enables the FTDC-style time-series capture
	// (internal/tsdb): every count report and telemetry reading is
	// appended to per-pole history series at its wire timestamp, and the
	// /api/history endpoints serve raw and downsampled reads over them.
	// A sample is readable there when its report is acked. The pointed-to
	// Config selects the store's chunking, retention, and optional
	// disk-backed segments.
	History *tsdb.Config
	// Obs, when non-nil, registers the backend's metrics, all of them
	// process-wide: reports and alerts received, connection counts, wire
	// traffic, the edge latency each report carries, snapshot build
	// counters, and query API counters. No series is labelled by pole: a
	// pole's present is its PoleStats row (/api/poles/{id}), its past the
	// History store (/api/history).
	Obs *obs.Registry
	// Logf, if non-nil, receives diagnostic output; defaults to a no-op.
	// The server serializes calls, so handlers for concurrent pole
	// connections never interleave writes into a shared sink.
	Logf func(format string, args ...any)
}

// PoleStats aggregates one pole's reports.
type PoleStats struct {
	PoleID     uint32    `json:"pole_id"`
	Location   string    `json:"location"`
	Zone       string    `json:"zone"`
	Reports    int       `json:"reports"`
	LastCount  int       `json:"last_count"`
	TotalCount int64     `json:"total_count"`
	PeakCount  int       `json:"peak_count"`
	LastSeen   time.Time `json:"last_seen"`
	LastTemp   float64   `json:"last_temp"`
	MaxTemp    float64   `json:"max_temp"`
	Alerts     int       `json:"alerts"`
	// ModelVersion is the classifier fingerprint the pole announced in
	// its hello (0 = unversioned). Inventory only: the backend runs no
	// model to compare it with.
	ModelVersion uint32 `json:"model_version,omitempty"`
}

// backendObs is the server-wide instrument set; nil fields (no registry)
// make every update a no-op.
type backendObs struct {
	connsActive    *obs.Gauge
	connsTotal     *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	msgsIn         *obs.Counter
	msgsOut        *obs.Counter
	reports        *obs.Counter
	crowding       *obs.Counter
	overheat       *obs.Counter
	edgeLatency    *obs.Histogram
	snapshotBuilds *obs.Counter
	snapshotPoles  *obs.Gauge
	snapshotBuilt  *obs.Gauge
	// What publishing costs and whether it patches: builds that had to
	// derive the index again, rows encoded, time per build.
	snapshotFullBuilds  *obs.Counter
	snapshotRowsEncoded *obs.Counter
	snapshotBuildTime   *obs.Histogram
}

// Server is the campus backend.
type Server struct {
	cfg  Config
	ln   net.Listener
	m    backendObs
	apiM apiObs

	logMu sync.Mutex

	// reg is the sharded write-path state; snap the read-path view.
	reg  *registry
	snap atomic.Pointer[Snapshot]
	// buildMu serializes snapshot builders; buildSeq and dirtyRows (the
	// builder's scratch for collected rows) are owned by it.
	buildMu   sync.Mutex
	buildSeq  uint64
	dirtyRows []PoleStats
	// wake tells the publisher rows changed: a write fills its one slot
	// without blocking, so any number of writes is one pending build.
	wake chan struct{}

	alog alertLog

	// hist is the FTDC-style history store (nil when Config.History is
	// nil).
	hist *tsdb.Store

	apiLn  net.Listener
	apiSrv *http.Server

	wg       sync.WaitGroup
	loopCtx  context.Context
	shutdown context.CancelFunc
	done     chan struct{}
}

// Listen starts the backend on cfg.Addr.
func Listen(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		reg:      newRegistry(),
		wake:     make(chan struct{}, 1),
		loopCtx:  ctx,
		shutdown: cancel,
		done:     make(chan struct{}),
	}
	s.snap.Store(newSnapshot(0, time.Now(), nil))
	s.alog.init(DefaultAlertLogCap)
	if cfg.History != nil {
		st, err := tsdb.New(*cfg.History)
		if err != nil {
			cancel()
			ln.Close()
			return nil, err
		}
		s.hist = st
	}
	reg := cfg.Obs
	s.m = backendObs{
		connsActive:    reg.Gauge("backend_connections_active", "pole connections currently open"),
		connsTotal:     reg.Counter("backend_connections_total", "pole connections accepted since start"),
		bytesIn:        reg.Counter("backend_wire_bytes_received_total", "framed bytes received from poles"),
		bytesOut:       reg.Counter("backend_wire_bytes_sent_total", "framed bytes sent to poles"),
		msgsIn:         reg.Counter("backend_wire_messages_received_total", "framed messages received from poles"),
		msgsOut:        reg.Counter("backend_wire_messages_sent_total", "framed messages sent to poles"),
		reports:        reg.Counter("backend_reports_total", "count reports received"),
		crowding:       reg.Counter("backend_alerts_total", "alerts raised, by kind", obs.L("kind", "crowding")),
		overheat:       reg.Counter("backend_alerts_total", "alerts raised, by kind", obs.L("kind", "overheat")),
		edgeLatency:    reg.Histogram("backend_report_edge_latency_seconds", "per-frame edge processing latency carried by count reports", obs.LatencyBuckets()),
		snapshotBuilds: reg.Counter("backend_snapshot_builds_total", "campus snapshots published"),
		snapshotPoles:  reg.Gauge("backend_snapshot_poles", "poles in the current campus snapshot"),
		snapshotBuilt:  reg.Gauge("backend_snapshot_built_timestamp_seconds", "unix time the current campus snapshot was built"),

		snapshotFullBuilds:  reg.Counter("backend_snapshot_full_builds_total", "campus snapshots that re-derived the index and encoded every row (a pole was new or changed zone)"),
		snapshotRowsEncoded: reg.Counter("backend_snapshot_rows_encoded_total", "pole rows encoded into campus snapshots"),
		snapshotBuildTime:   reg.Histogram("backend_snapshot_build_seconds", "time to collect the written rows and build one campus snapshot", obs.LatencyBuckets()),
	}
	s.apiM = newAPIObs(cfg.Obs)
	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	if interval > 0 {
		s.wg.Add(1)
		go s.publishLoop(interval, func() { s.publish(false) })
	}
	if cfg.APIAddr != "" {
		if err := s.serveAPI(cfg.APIAddr); err != nil {
			cancel()
			ln.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop(ctx)
	return s, nil
}

// logf serializes diagnostic output across handler goroutines.
func (s *Server) logf(format string, args ...any) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.Logf(format, args...)
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes all connections and the query API, and
// waits for handler goroutines to exit.
func (s *Server) Close() error {
	s.shutdown()
	err := s.ln.Close()
	if s.apiSrv != nil {
		s.apiSrv.Close()
	}
	s.wg.Wait()
	if s.hist != nil {
		// Handlers have exited by now, so every acked sample is in the
		// store: seal the hot tails so disk segments carry them all, then
		// flush the segment writer. The store itself stays readable.
		s.hist.SealAll()
		if cerr := s.hist.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	close(s.done)
	return err
}

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		s.m.connsTotal.Inc()
		s.m.connsActive.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.m.connsActive.Add(-1)
			// Close the connection when either the handler finishes or
			// the server shuts down.
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			defer conn.Close()
			if err := s.handle(conn); err != nil && !errors.Is(err, net.ErrClosed) {
				s.logf("backend: connection from %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

func (s *Server) handle(conn net.Conn) error {
	wc := wire.NewConn(conn)
	wc.Instrument(s.m.bytesOut, s.m.bytesIn, s.m.msgsOut, s.m.msgsIn)
	// This goroutine is the only writer on its connection, so acks and
	// alerts go straight to wc.Send.
	var poleID uint32
	for {
		t, body, err := wc.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch t {
		case wire.MsgHello:
			h, err := wire.DecodeHello(body)
			if err != nil {
				return err
			}
			poleID = h.PoleID
			s.withPole(h.PoleID, func(p *PoleStats) {
				p.Location = h.Location
				p.Zone = h.Zone
				if h.ModelVersion != 0 {
					p.ModelVersion = h.ModelVersion
				}
				p.LastSeen = time.Now()
			})
			s.logf("backend: pole %d (%s) connected", h.PoleID, h.Location)
		case wire.MsgCountReport:
			r, err := wire.DecodeCountReport(body)
			if err != nil {
				return err
			}
			s.recordCount(r)
			if err := wc.Send(wire.MsgAck, wire.EncodeAck(wire.Ack{Seq: r.Seq})); err != nil {
				return err
			}
			if s.cfg.CrowdingLimit > 0 && int(r.Count) >= s.cfg.CrowdingLimit {
				if err := s.alert(wc, wire.Alert{
					PoleID:  r.PoleID,
					Kind:    wire.AlertCrowding,
					Message: fmt.Sprintf("count %d at pole %d meets or exceeds limit %d", r.Count, r.PoleID, s.cfg.CrowdingLimit),
				}); err != nil {
					return err
				}
			}
		case wire.MsgTelemetry:
			tm, err := wire.DecodeTelemetry(body)
			if err != nil {
				return err
			}
			s.recordTelemetry(tm)
			if s.cfg.OverheatLimit > 0 && finite(tm.PoleTemp) && tm.PoleTemp >= s.cfg.OverheatLimit {
				if err := s.alert(wc, wire.Alert{
					PoleID:  tm.PoleID,
					Kind:    wire.AlertOverheat,
					Message: fmt.Sprintf("pole %d compartment at %.1f°C meets or exceeds rated %.1f°C", tm.PoleID, tm.PoleTemp, s.cfg.OverheatLimit),
				}); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("backend: unexpected message type %d from pole %d", t, poleID)
		}
	}
}

// alert records a in the log, the pole's row and the per-kind counter and
// notifies the pole on its connection.
func (s *Server) alert(wc *wire.Conn, a wire.Alert) error {
	s.alog.add(a)
	s.withPole(a.PoleID, func(p *PoleStats) { p.Alerts++ })
	switch a.Kind {
	case wire.AlertCrowding:
		s.m.crowding.Inc()
	case wire.AlertOverheat:
		s.m.overheat.Inc()
	}
	s.logf("backend: ALERT %s", a.Message)
	return wc.Send(wire.MsgAlert, wire.EncodeAlert(a))
}

// withPole runs f with the pole's aggregate record under the owning
// shard's lock, creating it on first sight of the pole, wakes the
// publisher, and returns the pole's history handles (nil with history
// off) for use after the lock.
func (s *Server) withPole(id uint32, f func(*PoleStats)) *poleHist {
	h := s.reg.withPole(id, s.newPoleHist, f)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return h
}

func (s *Server) recordCount(r wire.CountReport) {
	s.m.reports.Inc()
	s.m.edgeLatency.Observe(float64(r.LatencyUS) / 1e6)
	now := time.Now()
	h := s.withPole(r.PoleID, func(p *PoleStats) {
		p.Reports++
		p.LastCount = int(r.Count)
		p.TotalCount += int64(r.Count)
		if int(r.Count) > p.PeakCount {
			p.PeakCount = int(r.Count)
		}
		p.LastSeen = now
	})
	h.recordCount(r, now)
}

// recordTelemetry updates the pole's row and captures both readings to
// history. The floats come straight off the socket and encoding/json
// refuses NaN and ±Inf, so a non-finite PoleTemp reaches history only
// (served there as null): the row — the only other place a temperature
// lives — keeps its last finite value and stays servable.
func (s *Server) recordTelemetry(t wire.Telemetry) {
	now := time.Now()
	h := s.withPole(t.PoleID, func(p *PoleStats) {
		if finite(t.PoleTemp) {
			p.LastTemp = t.PoleTemp
			if t.PoleTemp > p.MaxTemp {
				p.MaxTemp = t.PoleTemp
			}
		}
		p.LastSeen = now
	})
	h.recordTelemetry(t, now)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Snapshot returns fresh per-pole aggregates sorted by pole id: it
// forces a build and returns the new snapshot's rows. Scrape-style
// consumers that must never touch shard locks should read Current()
// instead and accept the configured staleness bound.
func (s *Server) Snapshot() []PoleStats {
	snap := s.RebuildSnapshot()
	out := make([]PoleStats, len(snap.Poles))
	for i, p := range snap.Poles {
		out[i] = *p
	}
	return out
}

// Alerts returns a copy of the retained alerts in raise order. The log
// is a bounded ring of DefaultAlertLogCap entries: once more alerts have
// been raised than it holds, the oldest are no longer returned.
func (s *Server) Alerts() []wire.Alert {
	_, out := s.alog.recent(-1)
	return out
}

// CampusCount returns the most recent total count across all poles
// (forcing a snapshot build, like Snapshot).
func (s *Server) CampusCount() int {
	return s.RebuildSnapshot().Campus.Count
}
