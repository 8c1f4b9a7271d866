package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the run's time base: every boundary is stamped in monotonic
// nanoseconds since base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// sleepUntil is coarse: a sleep lasts at least a millisecond and
// overshoots by a fraction of one on a virtual machine. Generators that
// use it time each operation from its actual start and report how late
// they ran.
func (c clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// spinAhead is how long before a due instant waitUntil stops sleeping.
const spinAhead = 2 * time.Millisecond

// waitUntil is precise: it sleeps to shortly before t and yields in a
// loop for the rest. Only low-rate schedules can afford it.
func (c clock) waitUntil(t int64) {
	c.sleepUntil(t - int64(spinAhead))
	for c.now() < t {
		runtime.Gosched()
	}
}

// failures classifies every failed operation instead of folding them
// into one number. A failed operation also misses every latency.
type failures struct {
	transport atomic.Int64 // connection or protocol error
	http4xx   atomic.Int64
	http5xx   atomic.Int64
	body      atomic.Int64 // Content-Length mismatch or undecodable JSON
	count     atomic.Int64 // a count or total that differs from its reference
	lost      atomic.Int64 // frame or report never acked / never visible
}

func (f *failures) total() int64 {
	return f.transport.Load() + f.http4xx.Load() + f.http5xx.Load() +
		f.body.Load() + f.count.Load() + f.lost.Load()
}

func (f *failures) asMap() map[string]int64 {
	return map[string]int64{
		"transport": f.transport.Load(), "4xx": f.http4xx.Load(), "5xx": f.http5xx.Load(),
		"body": f.body.Load(), "count": f.count.Load(), "lost": f.lost.Load(),
	}
}

// tracked is one frame (pole workloads) or canary report (fleet
// workloads) followed from capture or send to visibility over HTTP.
type tracked struct {
	due       int64  // scheduled capture (the release or send instant when there is no schedule)
	rel       int64  // when the generator actually released it
	tx        int64  // report seen leaving the pole side
	ack       int64  // ack seen arriving at the pole side
	vis       int64  // first HTTP response that includes it
	latencyUS uint32 // LatencyUS the pole stamped into the report
}

// ingestLog is one pole's tracked operations in send order. The backend
// counts the pole's reports, so operation k (0-based) is visible once a
// response shows reports >= base+k+1.
type ingestLog struct {
	pole uint32
	base int // reports the backend held for this pole before the log began

	mu   sync.Mutex
	recs []tracked
	seen int // recs[:seen] have been observed visible
}

func (l *ingestLog) add(r tracked) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
	return len(l.recs) - 1
}

// stamp applies f to the operation with 1-based sequence number seq; it
// reports false when there is none.
func (l *ingestLog) stamp(seq uint64, f func(*tracked)) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > uint64(len(l.recs)) {
		return false
	}
	f(&l.recs[seq-1])
	return true
}

// unseen reports whether an acked operation has not been seen over HTTP
// yet. One that is not acked yet cannot be visible, and looking for it
// would only take processor time from the pipeline that is producing it.
func (l *ingestLog) unseen() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen < len(l.recs) && l.recs[l.seen].ack != 0
}

// pending reports whether any operation has not been seen yet, acked or
// not.
func (l *ingestLog) pending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen < len(l.recs)
}

// markVisible stamps every not-yet-seen operation the response covers.
func (l *ingestLog) markVisible(reports int, at int64, tr *tracer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.seen < len(l.recs) && l.base+l.seen+1 <= reports {
		r := &l.recs[l.seen]
		r.vis = at
		l.seen++
		seq := uint64(l.seen)
		tr.add("snapshot_wait", "freshness", l.pole, seq, r.ack, at)
		tr.add("freshness", "", l.pole, seq, r.due, at)
	}
}

func (l *ingestLog) snapshot() []tracked {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tracked(nil), l.recs...)
}

// ackRec is one report of a fleet connection: when it was due, when it
// left, when its ack came back.
type ackRec struct {
	due, tx, ack int64
	pole         uint32
	canary       int32 // index into the canary log, -1 for ordinary poles
}

// Query kinds, in the order the per-endpoint metrics are named.
const (
	qCampus = iota
	qPoles
	qPoleID
	qZones
	qZoneID
	qTop
	qAlerts
	qHistoryRaw
	qHistoryBucket
	qNotModified // ledger only: a conditional request that revalidates
	qWatermark
)

// endpointNames are the metric suffixes of the ledger's endpoint rows.
var endpointNames = [...]string{
	qCampus: "campus", qPoles: "poles", qPoleID: "pole_id", qZones: "zones", qZoneID: "zone_id",
	qTop: "top", qAlerts: "alerts", qHistoryRaw: "history_raw", qHistoryBucket: "history_bucket",
	qNotModified: "not_modified",
}

// queryRec is one HTTP request as the single dashboard connection saw it.
type queryRec struct {
	due, start, end int64
	kind            uint8
	status          int16 // 0 = failed
	cond            bool  // sent with If-None-Match
}

// snapObs is what one watermark response says about the snapshot it was
// served from.
type snapObs struct {
	at    int64
	seq   uint64
	ageMs float64
}

// apiClient is the benchmark's own dashboard client: one keep-alive
// connection, every failure classified.
type apiClient struct {
	base  string
	hc    *http.Client
	fails *failures
	buf   bytes.Buffer
}

func newAPIClient(addr string, f *failures) *apiClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &apiClient{base: "http://" + addr, hc: &http.Client{Transport: tr}, fails: f}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// get performs one GET. A response is good when it is 200 or 304 and the
// bytes read match Content-Length; anything else is classified and
// reported as status 0. With keep the body stays in c.buf until the next
// call.
func (c *apiClient) get(path, inm string, keep bool) (status int, n int64, etag string) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		c.fails.transport.Add(1)
		return 0, 0, ""
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fails.transport.Add(1)
		return 0, 0, ""
	}
	defer resp.Body.Close()
	c.buf.Reset()
	var dst io.Writer = io.Discard
	if keep {
		dst = &c.buf
	}
	n, err = io.Copy(dst, resp.Body)
	switch {
	case resp.StatusCode >= 500:
		c.fails.http5xx.Add(1)
	case resp.StatusCode >= 400:
		c.fails.http4xx.Add(1)
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified:
		c.fails.transport.Add(1)
	case err != nil:
		c.fails.transport.Add(1)
	case resp.StatusCode == http.StatusOK && n != resp.ContentLength:
		c.fails.body.Add(1)
	default:
		return resp.StatusCode, n, resp.Header.Get("ETag")
	}
	return 0, n, ""
}

// poleView is the part of GET /api/poles/{id} the watermark reads.
type poleView struct {
	SnapshotSeq uint64    `json:"snapshot_seq"`
	BuiltAt     time.Time `json:"built_at"`
	Pole        struct {
		Reports    int   `json:"reports"`
		TotalCount int64 `json:"total_count"`
	} `json:"pole"`
}

// watermark fetches one pole and decodes it; ok is false when the
// request failed or the body did not decode (both classified).
func (c *apiClient) watermark(id uint32) (v poleView, ok bool) {
	status, _, _ := c.get(fmt.Sprintf("/api/poles/%d", id), "", true)
	if status != http.StatusOK {
		return v, false
	}
	if err := json.Unmarshal(c.buf.Bytes(), &v); err != nil {
		c.fails.body.Add(1)
		return v, false
	}
	return v, true
}

// dashboard drives the single HTTP connection and keeps its log.
type dashboard struct {
	clk    clock
	client *apiClient
	tr     *tracer
	logs   []*ingestLog // what watermark lookups make visible

	recs  []queryRec
	snaps []snapObs
	nreq  uint64 // requests made, the span identifier
	nmix  uint64 // mix requests made
}

// lookup is one watermark request against log l.
func (d *dashboard) lookup(l *ingestLog, due int64) {
	start := d.clk.now()
	v, ok := d.client.watermark(l.pole)
	end := d.clk.now()
	rec := queryRec{due: due, start: start, end: end, kind: qWatermark}
	if ok {
		rec.status = http.StatusOK
		l.markVisible(v.Pole.Reports, end, d.tr)
		d.snaps = append(d.snaps, snapObs{at: end, seq: v.SnapshotSeq, ageMs: float64(time.Since(v.BuiltAt)) / 1e6})
	}
	d.record(rec, "watermark")
}

func (d *dashboard) record(rec queryRec, name string) {
	d.nreq++
	d.recs = append(d.recs, rec)
	d.tr.add(name, "", 0, d.nreq, rec.start, rec.end)
}

// pollUnseen is the pole workloads' HTTP side: watermark lookups at a
// paced 1 kHz, round-robin over poles, only while some acked frame has
// not been seen yet. Once stop is set it returns as soon as nothing is
// pending, or at giveUp.
func (d *dashboard) pollUnseen(stop *atomic.Bool, giveUp *atomic.Int64) {
	const period = int64(time.Millisecond)
	next := d.clk.now()
	for i := 0; ; i++ {
		var l *ingestLog
		pending := false
		for j := range d.logs {
			c := d.logs[(i+j)%len(d.logs)]
			pending = pending || c.pending()
			if l == nil && c.unseen() {
				l = c
			}
		}
		if stop.Load() && (!pending || d.clk.now() > giveUp.Load()) {
			return
		}
		next = max(next+period, d.clk.now())
		d.clk.sleepUntil(next)
		if l != nil {
			d.lookup(l, next)
		}
	}
}

// mixer samples the dashboard request mix and keeps the revalidation
// state a polling dashboard would (last ETag per URL).
type mixer struct {
	rng          *rand.Rand
	poles, zones int
	etags        map[string]string
}

func newMixer(seed int64, poles, zones int) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed)), poles: poles, zones: zones, etags: map[string]string{}}
}

// next draws one request: 40% campus, 15% top-10, 15% one pole, 15% one
// zone, 5% full listing, 10% history (half raw, half bucketed); half of
// the cacheable ones are conditional.
func (m *mixer) next() (path string, kind uint8, inm string) {
	cacheable := false
	switch p := m.rng.Intn(100); {
	case p < 40:
		path, kind, cacheable = "/api/campus", qCampus, true
	case p < 55:
		path, kind, cacheable = "/api/top?k=10", qTop, true
	case p < 70:
		path, kind = fmt.Sprintf("/api/poles/%d", 1+m.rng.Intn(m.poles)), qPoleID
	case p < 85:
		path, kind = fmt.Sprintf("/api/zones/%s", zoneName(uint32(m.rng.Intn(m.zones)), m.zones)), qZoneID
	case p < 90:
		path, kind, cacheable = "/api/poles", qPoles, true
	default:
		path, kind = historyPath(uint32(1+m.rng.Intn(m.poles)), m.rng.Intn(2) == 0)
	}
	if cacheable && m.rng.Intn(2) == 0 {
		inm = m.etags[path]
	}
	return path, kind, inm
}

func historyPath(pole uint32, raw bool) (string, uint8) {
	if raw {
		return fmt.Sprintf("/api/history?pole=%d&series=count&window=1m&res=raw", pole), qHistoryRaw
	}
	return fmt.Sprintf("/api/history?pole=%d&series=count&window=1m&res=1s", pole), qHistoryBucket
}

func zoneName(id uint32, zones int) string { return fmt.Sprintf("zone-%d", int(id)%zones) }

// decodeEvery is how often a mix body is fully JSON-decoded (every lookup
// body is).
const decodeEvery = 50

// mixRequest performs one request of the mix.
func (d *dashboard) mixRequest(m *mixer, due int64) {
	path, kind, inm := m.next()
	decode := d.nmix%decodeEvery == 0
	d.nmix++
	start := d.clk.now()
	status, _, etag := d.client.get(path, inm, decode)
	end := d.clk.now()
	if etag != "" {
		m.etags[path] = etag
	}
	if status == http.StatusOK && decode {
		var v map[string]any
		if err := json.Unmarshal(d.client.buf.Bytes(), &v); err != nil {
			d.client.fails.body.Add(1)
			status = 0
		}
	}
	d.record(queryRec{due: due, start: start, end: end, kind: kind, status: int16(status), cond: inm != ""}, endpointNames[kind])
}

// alternate is the fleet workloads' HTTP side: one mix request, one
// canary watermark lookup, strictly alternating. With a schedule it is an
// open loop on that schedule and returns the requests it never got to;
// without, a closed loop that runs until stop.
func (d *dashboard) alternate(m *mixer, schedule []time.Duration, stop *atomic.Bool) int64 {
	i := 0
	for ; !stop.Load() && (schedule == nil || i < len(schedule)); i++ {
		due := d.clk.now()
		if schedule != nil {
			due = int64(schedule[i])
			d.clk.sleepUntil(due)
		}
		if i%2 == 0 {
			d.mixRequest(m, due)
		} else {
			d.lookup(d.logs[0], due)
		}
	}
	return int64(max(0, len(schedule)-i))
}

// reportConn is one pole-side connection of a fleet workload.
type reportConn struct {
	clk    clock
	conn   net.Conn
	wc     wireConn
	fails  *failures
	tr     *tracer
	canary *ingestLog // non-nil on the connection that carries the canary
	id     uint32     // span identifier

	mu       sync.Mutex
	recs     chunkLog[ackRec]
	acked    atomic.Int64
	closed   atomic.Bool
	window   int64         // most reports in flight
	inFlight atomic.Int64  // sent and not yet acked
	resume   chan struct{} // the reader's signal that half the window is free again
	done     chan struct{} // reader exited
}

func dialReportConn(clk clock, addr string, id uint32, window int, f *failures, tr *tracer) (*reportConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rc := &reportConn{
		clk: clk, conn: conn, wc: newWireConn(conn), fails: f, tr: tr, id: id,
		window: int64(window), resume: make(chan struct{}, 1), done: make(chan struct{}),
	}
	go rc.readAcks()
	return rc, nil
}

func (rc *reportConn) hello(pole uint32, zones int) error {
	return wireSend(rc.wc, msgHello, encodeHello(pole, fmt.Sprintf("walkway-%d", pole), zoneName(pole, zones)))
}

// send writes one report and logs it; due is when it was scheduled (the
// send instant itself in a closed loop). It blocks while the window is
// full.
func (rc *reportConn) send(pole uint32, count uint32, due int64) error {
	// A full window waits until half of it is free, not for the next ack:
	// the sender then wakes once per burst of acks, as a pipelining client
	// does, and not once per report, which made the generator's own
	// wake-ups the bottleneck of the closed loop.
	for rc.inFlight.Load() >= rc.window {
		select {
		case <-rc.resume:
		case <-rc.done:
			return errors.New("connection closed")
		}
	}
	rc.inFlight.Add(1)
	tx := rc.clk.now()
	if due == 0 {
		due = tx
	}
	rec := ackRec{due: due, tx: tx, pole: pole, canary: -1}
	if rc.canary != nil && pole == rc.canary.pole {
		// Freshness on a fleet workload runs from the send instant.
		rec.canary = int32(rc.canary.add(tracked{due: tx, rel: tx, tx: tx}))
	}
	rc.mu.Lock()
	rc.recs.append(rec)
	seq := uint64(rc.recs.n)
	rc.mu.Unlock()
	return wireSend(rc.wc, msgReport, encodeReport(pole, seq, time.Now().UTC(), count))
}

func (rc *reportConn) readAcks() {
	defer close(rc.done)
	for {
		t, body, err := wireRecv(rc.wc)
		if err != nil {
			if !rc.closed.Load() {
				rc.fails.transport.Add(1)
			}
			return
		}
		if t != msgAck {
			continue // alerts
		}
		seq, err := decodeAck(body)
		now := rc.clk.now()
		rc.mu.Lock()
		if err != nil || seq == 0 || seq > uint64(rc.recs.n) {
			rc.mu.Unlock()
			rc.fails.transport.Add(1)
			continue
		}
		r := rc.recs.at(int(seq - 1))
		r.ack = now
		due, tx, canary := r.due, r.tx, r.canary
		rc.mu.Unlock()
		if canary >= 0 {
			rc.canary.mu.Lock()
			rc.canary.recs[canary].ack = now
			rc.canary.mu.Unlock()
		}
		rc.tr.add("report", "", rc.id, seq, due, now)
		rc.tr.add("ack_rtt", "report", rc.id, seq, tx, now)
		rc.acked.Add(1)
		if rc.inFlight.Add(-1) == rc.window/2 {
			select {
			case rc.resume <- struct{}{}:
			default:
			}
		}
	}
}

func (rc *reportConn) sent() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return int64(rc.recs.n)
}

// awaitAcks waits until every report sent so far has been acked.
func (rc *reportConn) awaitAcks(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for rc.acked.Load() < rc.sent() {
		select {
		case <-rc.done:
			return fmt.Errorf("connection %d closed with %d reports unacked", rc.id, rc.sent()-rc.acked.Load())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("connection %d: %d reports never acked", rc.id, rc.sent()-rc.acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// hangUp closes the connection and waits for its reader.
func (rc *reportConn) hangUp() {
	rc.closed.Store(true)
	rc.conn.Close()
	<-rc.done
}

func (rc *reportConn) snapshot() []ackRec {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.recs.flat()
}

// syntheticCount is a per-pole level plus seeded noise, always below the
// crowding limit so fleet workloads raise no alerts.
func syntheticCount(pole uint32, rng *rand.Rand) uint32 {
	return 2 + pole%7 + uint32(rng.Intn(3))
}
