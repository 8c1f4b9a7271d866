package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// fleetSpec is what distinguishes fleet_ingest from fleet_dashboard.
type fleetSpec struct {
	reportRate float64 // reports per second over all connections; 0 = closed loop, window 64
	queryRate  float64 // HTTP requests per second; 0 = closed loop
	// canaryEvery makes every n-th report of the canary's connection a
	// canary report, so freshness gets about 25 samples a second at the
	// rates sized for this box without the canary dominating the traffic.
	canaryEvery int
}

var fleetSpecs = map[string]fleetSpec{
	"fleet_ingest":    {queryRate: 400, canaryEvery: 512},
	"fleet_dashboard": {reportRate: 2000, canaryEvery: 80},
}

const (
	fleetPoles   = 10000
	fleetZones   = 64
	setupReports = 5 // reports per pole sent at registration
	ingestWindow = 64
	// openWindow stands for "no in-flight bound" on a paced connection:
	// half a minute of backlog at the paced rate never fills it.
	openWindow = 1 << 16
	canaryPole = uint32(1)
)

// fleetEnv is a registered 10,000-pole backend and the pole-side
// connections that own its poles.
type fleetEnv struct {
	srv        server
	historyDir string
	conns      []*reportConn
	owned      [][]uint32 // owned[i] are the poles connection i said hello for
	closed     bool
}

// close hangs up and closes the backend, once.
func (e *fleetEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.conns {
		c.hangUp()
	}
	backendClose(e.srv)
}

// setupFleet starts the deployment backend and registers every pole
// (hello + setupReports reports) over max(1, N-1) connections, each pole
// on the connection that will keep reporting for it. It returns once a
// snapshot holds all of it.
func setupFleet(o backendOptions, clk clock, window int, fails *failures, tr *tracer) (*fleetEnv, error) {
	srv, err := startBackend(o)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{srv: srv, historyDir: o.historyDir}
	nConns := max(1, runtime.NumCPU()-1)
	e.owned = make([][]uint32, nConns)
	for p := uint32(1); p <= fleetPoles; p++ {
		e.owned[int(p)%nConns] = append(e.owned[int(p)%nConns], p)
	}
	for i := 0; i < nConns; i++ {
		c, err := dialReportConn(clk, backendAddr(srv), uint32(i), window, fails, tr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	errs := make([]error, nConns)
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = register(c, e.owned[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("registration: %w", err)
		}
	}
	if err := awaitPoles(srv, fleetPoles, fleetPoles*setupReports); err != nil {
		e.close()
		return nil, err
	}
	if o.reg != nil {
		awaitHistory(srv)
	}
	return e, nil
}

// awaitHistory waits until the history store has stopped growing: its
// series count unchanged for a tick and a half of the history loop, so
// that one whole pass over the registry has run since registration and
// found nothing new. The loop's passes create a history series for every
// instrument of every pole, as many again as registration made, and until
// they are over the backend is still setting up. (Waiting for one pass to
// begin and end is not enough: a registration slower than a tick is
// overtaken by a pass, and the wait then never sees one begin.)
func awaitHistory(srv server) {
	deadline := time.Now().Add(drainTimeout)
	last, since := historySeriesCount(srv), time.Now()
	for time.Since(since) < historyTick*3/2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if n := historySeriesCount(srv); n != last {
			last, since = n, time.Now()
		}
	}
}

func register(c *reportConn, poles []uint32) error {
	for _, p := range poles {
		if err := c.hello(p, fleetZones); err != nil {
			return err
		}
	}
	for round := 0; round < setupReports; round++ {
		for _, p := range poles {
			if err := c.send(p, 2+p%7, 0); err != nil {
				return err
			}
		}
	}
	return c.awaitAcks(drainTimeout)
}

// runFleetWorkload runs fleet_ingest or fleet_dashboard.
func runFleetWorkload(rc runConfig, spec fleetSpec) (*outcome, error) {
	started := time.Now()
	clk := clock{base: started}
	fails := &failures{}
	tr := newTracer()
	window := ingestWindow
	if spec.reportRate > 0 {
		window = openWindow
	}
	env, err := setupFleet(backendOptions{historyDir: rc.historyDir(), reg: newRegistry()}, clk, window, fails, tr)
	if err != nil {
		return nil, err
	}
	defer env.close()

	canary := &ingestLog{pole: canaryPole, base: setupReports}
	env.conns[int(canaryPole)%len(env.conns)].canary = canary
	dash := &dashboard{clk: clk, client: newAPIClient(backendAPIAddr(env.srv), fails), tr: tr, logs: []*ingestLog{canary}}
	defer dash.client.close()
	// The first snapshot that holds every pole is seen over HTTP before
	// warm-up, so no request of the mix can 404.
	dash.lookup(canary, clk.now())

	setup := time.Since(started)
	warmHeap()
	pl := makePlan(clk.now(), rc.seconds, rc.trace)
	span := time.Duration(pl.end() - pl.start)
	rng := rand.New(rand.NewSource(rc.seed))

	var unreleased atomic.Int64
	var wg sync.WaitGroup
	for i, c := range env.conns {
		s := &reportSender{conn: c, poles: env.owned[i], every: spec.canaryEvery, rng: rand.New(rand.NewSource(rng.Int63())), fails: fails}
		if spec.reportRate > 0 {
			s.schedule = poissonSchedule(s.rng, spec.reportRate/float64(len(env.conns)), time.Duration(pl.start), span)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			unreleased.Add(s.run(clk, pl.end()))
		}()
	}
	mix := newMixer(rng.Int63(), fleetPoles, fleetZones)
	var schedule []time.Duration
	if spec.queryRate > 0 {
		schedule = poissonSchedule(rng, spec.queryRate, time.Duration(pl.start), span)
	}
	var stop atomic.Bool
	dashDone := make(chan struct{})
	go func() {
		defer close(dashDone)
		unreleased.Add(dash.alternate(mix, schedule, &stop))
	}()

	before, after := measurePhase(clk, pl, tr)

	wg.Wait()
	for _, c := range env.conns {
		if err := c.awaitAcks(drainTimeout); err != nil {
			fmt.Println("fleet:", err)
		}
	}
	stop.Store(true)
	<-dashDone
	// Lookups alone until the last canary report has been seen.
	var giveUp atomic.Int64
	giveUp.Store(clk.now() + int64(2*time.Second))
	dash.pollUnseen(&stop, &giveUp)

	verifyFleet(env, canary, fails)
	obs := &observations{
		logs: dash.logs, conns: env.conns, dash: dash,
		pacedIngest: spec.reportRate > 0, pacedHTTP: spec.queryRate > 0,
		totalPoles: fleetPoles, unreleased: unreleased.Load(),
	}
	out := newOutcome(rc, obs, pl, fails, setup, before, after)
	if rc.trace {
		if err := fleetLedger(out, rc, clk, env, dash.client); err != nil {
			return nil, err
		}
		if err := rc.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reportSender drives one pole-side connection through a window: a
// closed loop round-robin over the connection's poles, or, with a
// schedule, an open loop to uniformly random ones.
type reportSender struct {
	conn     *reportConn
	poles    []uint32
	every    int
	schedule []time.Duration
	rng      *rand.Rand
	fails    *failures
}

// run returns the scheduled reports it never sent.
func (s *reportSender) run(clk clock, end int64) int64 {
	for n := 0; ; n++ {
		var due int64
		var pole uint32
		if s.schedule != nil {
			if n >= len(s.schedule) {
				return 0
			}
			due = int64(s.schedule[n])
			clk.sleepUntil(due)
			pole = s.poles[s.rng.Intn(len(s.poles))]
		} else {
			if clk.now() >= end {
				return 0
			}
			pole = s.poles[n%len(s.poles)]
		}
		if s.conn.canary != nil && n%s.every == s.every-1 {
			pole = s.conn.canary.pole
		}
		if err := s.conn.send(pole, syntheticCount(pole, s.rng), due); err != nil {
			s.fails.transport.Add(1)
			fmt.Println("fleet: send:", err)
			return int64(max(0, len(s.schedule)-n-1))
		}
	}
}

// verifyFleet is the after-window half of the correctness gate: every
// report sent was acked, every canary report was seen over HTTP, and the
// campus total equals the reports acked.
func verifyFleet(env *fleetEnv, canary *ingestLog, fails *failures) {
	var acked int64
	for _, c := range env.conns {
		acked += c.acked.Load()
		fails.lost.Add(c.sent() - c.acked.Load())
	}
	for _, r := range canary.snapshot() {
		if r.vis == 0 {
			fails.lost.Add(1)
		}
	}
	if _, reports := campusTotals(env.srv); reports != acked {
		fails.count.Add(1)
		fmt.Printf("fleet: campus holds %d reports, %d were acked\n", reports, acked)
	}
}
