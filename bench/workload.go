package main

import (
	"runtime"
	"syscall"
	"time"
)

// phase is a half-open interval of the run's clock over which samples
// are aggregated.
type phase struct{ from, to int64 }

func (p phase) has(t int64) bool { return t >= p.from && t < p.to }
func (p phase) seconds() float64 { return float64(p.to-p.from) / 1e9 }

// rate is n completions over the whole phase, per second.
func (p phase) rate(n int) float64 { return float64(n) / p.seconds() }

// plan lays the run out on the clock. An untraced run is warm-up (a tenth
// of the window, the issue's 3 s to 30 s) then one measured window of the
// requested length. A traced run is warm-up, an untraced reference window
// and a traced window of a third of that length each (the issue's 10 s to
// 30 s), so the tracing overhead is measured inside one process and the
// remaining time goes to the ledger replays.
type plan struct {
	start            int64 // warm-up begins: the end of set-up
	untraced, traced phase
}

func makePlan(start int64, seconds float64, trace bool) plan {
	s := int64(seconds * 1e9)
	warm := start + s/10
	if !trace {
		return plan{start: start, untraced: phase{warm, warm + s}}
	}
	w := s / 3
	return plan{start: start, untraced: phase{warm, warm + w}, traced: phase{warm + w, warm + 2*w}}
}

func (p plan) end() int64 { return max(p.untraced.to, p.traced.to) }

// measured is the phase the per-layer window metrics come from.
func (p plan) measured() phase {
	if p.traced.to > 0 {
		return p.traced
	}
	return p.untraced
}

// observations is everything a workload's generators logged.
type observations struct {
	logs  []*ingestLog  // frames of real poles, or the canary's reports
	conns []*reportConn // fleet connections; nil on pole workloads
	dash  *dashboard

	pacedIngest, pacedHTTP bool
	totalPoles             int
	// unreleased counts scheduled operations a generator never got to.
	unreleased int64
}

// window is one phase's samples, latencies in milliseconds.
type window struct {
	ph phase

	ackLat   []float64 // capture to ack, pole workloads only
	fresh    []float64
	queryLat []float64
	// acked and queried count the reports and the headline HTTP requests
	// completed inside the phase.
	acked, queried int
	onPole         bool // real poles, as opposed to a synthetic fleet
	closedHTTP     bool // the HTTP connection ran a closed loop

	frameLat, streamE2E, srcWait, ackRTT, snapWait []float64
	listing, late, snapAge                         []float64
	conditional, notModified                       int
	backlog                                        int64
	snapshotsPerS                                  float64
}

// window aggregates one phase; last marks the run's final phase, which
// also inherits the operations no generator got to release.
func (o *observations) window(ph phase, last bool) window {
	onPole := o.conns == nil
	w := window{ph: ph, onPole: onPole, closedHTTP: !onPole && !o.pacedHTTP}
	for _, l := range o.logs {
		recs := l.snapshot()
		if o.pacedIngest && onPole {
			w.backlog += standingBacklog(len(recs), ph, func(i int) (int64, int64) { return recs[i].due, recs[i].rel })
		}
		for _, r := range recs {
			if r.ack > 0 && ph.has(r.ack) && onPole {
				w.acked++
			}
			if !ph.has(r.due) {
				continue
			}
			if o.pacedIngest && onPole {
				w.late = append(w.late, nsToMs(r.rel-r.due))
			}
			if r.ack == 0 {
				continue
			}
			if onPole {
				e2e := float64(r.latencyUS) / 1e3
				w.ackLat = append(w.ackLat, nsToMs(r.ack-r.due))
				w.frameLat = append(w.frameLat, nsToMs(r.tx-r.due))
				w.streamE2E = append(w.streamE2E, e2e)
				w.srcWait = append(w.srcWait, nsToMs(r.tx-r.due)-e2e)
				w.ackRTT = append(w.ackRTT, nsToMs(r.ack-r.tx))
			}
			if r.vis > 0 {
				w.fresh = append(w.fresh, nsToMs(r.vis-r.due))
				w.snapWait = append(w.snapWait, nsToMs(r.vis-r.ack))
			}
		}
	}
	for _, c := range o.conns {
		recs := c.snapshot()
		if o.pacedIngest {
			w.backlog += standingBacklog(len(recs), ph, func(i int) (int64, int64) { return recs[i].due, recs[i].tx })
		}
		for _, r := range recs {
			if r.ack > 0 && ph.has(r.ack) {
				w.acked++
			}
			if !ph.has(r.due) {
				continue
			}
			if o.pacedIngest {
				w.late = append(w.late, nsToMs(r.tx-r.due))
			}
			if r.ack > 0 {
				w.ackRTT = append(w.ackRTT, nsToMs(r.ack-r.tx))
			}
		}
	}
	if o.pacedHTTP {
		recs := o.dash.recs
		w.backlog += standingBacklog(len(recs), ph, func(i int) (int64, int64) { return recs[i].due, recs[i].start })
	}
	for _, q := range o.dash.recs {
		// The query metrics are about the dashboard mix on a fleet workload
		// and about the watermark lookups, all there is, on a pole workload.
		headline := onPole || q.kind != qWatermark
		if headline && q.status != 0 && ph.has(q.end) {
			w.queried++
		}
		if !ph.has(q.due) {
			continue
		}
		if o.pacedHTTP {
			w.late = append(w.late, nsToMs(q.start-q.due))
		}
		if q.status == 0 {
			continue
		}
		if headline {
			w.queryLat = append(w.queryLat, nsToMs(q.end-q.start))
		}
		if q.kind == qPoles && q.status == 200 {
			w.listing = append(w.listing, nsToMs(q.end-q.start))
		}
		if q.cond {
			w.conditional++
			if q.status == 304 {
				w.notModified++
			}
		}
	}
	if last {
		w.backlog += o.unreleased
	}
	var first, final *snapObs
	for i := range o.dash.snaps {
		s := &o.dash.snaps[i]
		if !ph.has(s.at) {
			continue
		}
		if first == nil {
			first = s
		}
		final = s
		w.snapAge = append(w.snapAge, s.ageMs)
	}
	if first != nil && final.at > first.at {
		w.snapshotsPerS = float64(final.seq-first.seq) / (float64(final.at-first.at) / 1e9)
	}
	return w
}

// dirtyRatio is the distinct poles written in each snapshot tick of the
// phase that saw a write, as a share of all poles: how much of a snapshot
// a rebuild finds changed. Only the traced run pays for the pass over
// every report.
func (o *observations) dirtyRatio(ph phase) float64 {
	tick := int64(snapshotTick)
	perTick := map[int64]map[uint32]struct{}{}
	write := func(at int64, pole uint32) {
		if at == 0 || !ph.has(at) {
			return
		}
		b := at / tick
		if perTick[b] == nil {
			perTick[b] = map[uint32]struct{}{}
		}
		perTick[b][pole] = struct{}{}
	}
	if o.conns == nil {
		for _, l := range o.logs {
			for _, r := range l.snapshot() {
				write(r.tx, l.pole)
			}
		}
	}
	for _, c := range o.conns {
		for _, r := range c.snapshot() {
			write(r.tx, r.pole)
		}
	}
	if len(perTick) == 0 || o.totalPoles == 0 {
		return 0
	}
	dirty := 0
	for _, poles := range perTick {
		dirty += len(poles)
	}
	return float64(dirty) / (float64(len(perTick)) * float64(o.totalPoles))
}

// standingBacklog is the backlog a paced generator did not get rid of by
// the end of a phase: the smallest number of operations due but not yet
// started, over the instants before the phase's end at which it started
// an operation due in the phase's last tenth. A generator that keeps up
// reads 0, because it catches up between operations; one that falls
// behind reads how far. (A count at the last instant alone would read the
// scheduler's wake-up delay times the rate.) at(i) is operation i's due
// and start instant, in due order.
func standingBacklog(n int, ph phase, at func(i int) (due, start int64)) int64 {
	tail := ph.to - (ph.to-ph.from)/10
	least, dueInTail := int64(-1), int64(0)
	for i, j := 0, 0; i < n; i++ {
		due, start := at(i)
		if due < tail || due >= ph.to {
			continue
		}
		dueInTail++
		if start >= ph.to {
			continue
		}
		// j passes every operation due by the time i started.
		for j = max(j, i+1); j < n; j++ {
			if d, _ := at(j); d > start {
				break
			}
		}
		if waiting := int64(j - i - 1); least < 0 || waiting < least {
			least = waiting
		}
	}
	if least < 0 {
		return dueInTail // none of them was started in time
	}
	return least
}

// attempted counts every operation the generators started.
func (o *observations) attempted() int64 {
	n := int64(len(o.dash.recs))
	if o.conns == nil {
		for _, l := range o.logs {
			n += int64(len(l.snapshot()))
		}
	}
	for _, c := range o.conns {
		n += c.sent()
	}
	return n
}

// warmHeap runs between set-up and warm-up and brings the heap to the
// state a long-running process has: it collects, allocates and touches as much again as is
// live and a quarter more (a collection starts when the heap has doubled
// and the heap keeps growing while it marks), drops it and collects
// again. The runtime keeps that memory, so what the window allocates
// until the next collection reuses pages that are already mapped. Without
// it a young process takes a page fault for every new page of garbage,
// and on a virtual machine whose memory the host backs lazily a
// first-touch fault costs tens of microseconds: the window would measure
// the host's fault handler. For the same reason it is not counted in
// setup_s: the same gigabyte took it 1 s to 9.5 s on one host.
func warmHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const block = 1 << 20
	want := ms.HeapAlloc + ms.HeapAlloc/4
	ballast := make([][]byte, 0, want/block+1)
	for total := uint64(0); total < want; total += block {
		b := make([]byte, block)
		for i := 0; i < block; i += 4096 {
			b[i] = 1
		}
		ballast = append(ballast, b)
	}
	ballast = nil
	runtime.GC()
}

// procSample is the process's resource use at one instant.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + system
	sys     time.Duration
	gcPause time.Duration
	heapSys uint64
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procSample{
		at: time.Now(), cpu: tv(ru.Utime) + tv(ru.Stime), sys: tv(ru.Stime),
		gcPause: time.Duration(ms.PauseTotalNs), heapSys: ms.HeapSys,
	}
}

// latency_p50_ms is the wait of the workload's user for the operation the
// workload exists for: a pole for the ack of a frame it captured, a
// dashboard for the full listing of the fleet. Both take milliseconds of
// work. (What costs one loopback round trip, a cached response or the ack
// of one report, follows the host's wake-up cost and does not repeat from
// run to run; README.md has the spreads.)
func (w window) headlineLatency() []float64 {
	if w.onPole {
		return w.ackLat
	}
	return w.listing
}

// headlineCount counts the completions of the workload's closed loop:
// frames on a pole workload (the offered rate on walkway), reports on
// fleet_ingest, requests of the dashboard mix on fleet_dashboard.
func (w window) headlineCount() int {
	if w.closedHTTP {
		return w.queried
	}
	return w.acked
}

// e2e computes the end-to-end metrics of one phase.
func (w window) e2e(m *metricSet) {
	m.setDist("freshness_p50_ms", w.fresh)
	m.setDist("latency_p50_ms", w.headlineLatency())
}

// layers computes the per-layer metrics a window yields by itself.
func (w window) layers(m *metricSet, before, after procSample) {
	m.setDist("frame_latency_p50_ms", w.frameLat)
	m.setTail("frame_latency_p95_ms", w.frameLat, 0.95)
	m.setDist("counting.stream_e2e_p50_ms", w.streamE2E)
	m.setDist("pole.source_wait_p50_ms", w.srcWait)
	m.setDist("backend.ack_rtt_p50_ms", w.ackRTT)
	m.setDist("backend.snapshot_wait_p50_ms", w.snapWait)
	m.set("backend.snapshots_per_s", w.snapshotsPerS, len(w.snapAge))
	m.setDist("backend.snapshot_age_p50_ms", w.snapAge)
	if w.conditional > 0 {
		m.set("backend.not_modified_ratio", float64(w.notModified)/float64(w.conditional), w.conditional)
	}
	m.setDist("query_p50_ms", w.queryLat)
	switch {
	case w.onPole:
		m.set("frames_per_s", w.ph.rate(w.acked), w.acked)
	case w.closedHTTP:
		m.set("query_per_s", w.ph.rate(w.queried), w.queried)
	default:
		m.set("reports_per_s", w.ph.rate(w.acked), w.acked)
	}
	m.setTail("backend.query_p99_ms", w.queryLat, 0.99)
	m.setDist("listing_p50_ms", w.listing)
	m.setTail("backend.listing_p99_ms", w.listing, 0.99)
	m.setTail("loadgen.late_p95_ms", w.late, 0.95)
	m.set("loadgen.backlog_end", float64(w.backlog), 0)
	if wall := after.at.Sub(before.at); wall > 0 {
		m.set("process.cpu_util", float64(after.cpu-before.cpu)/float64(wall)/float64(runtime.NumCPU()), 0)
	}
	if cpu := after.cpu - before.cpu; cpu > 0 {
		m.set("process.cpu_sys_ratio", float64(after.sys-before.sys)/float64(cpu), 0)
	}
	m.set("process.heap_peak_mb", float64(after.heapSys)/1e6, 0)
	m.set("process.gc_pause_total_ms", float64(after.gcPause-before.gcPause)/1e6, 0)
}
