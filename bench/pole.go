package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// poleSpec is what distinguishes walkway from crowd.
type poleSpec struct {
	ringFrames           int
	minPeople, maxPeople int
	objects              int
	rateHz               float64 // mean captures per second and pole; 0 = unpaced
}

var poleSpecs = map[string]poleSpec{
	"walkway": {ringFrames: 256, minPeople: 1, maxPeople: 6, objects: 2, rateHz: 20},
	"crowd":   {ringFrames: 128, minPeople: 16, maxPeople: 32, objects: 6},
}

// poleZones is how many zones the real poles are spread over.
const poleZones = 4

// modelSeed trains the classifier: cmd/polesim's default -seed. The model
// is part of the deployment, like the limits and the snapshot interval,
// and the run's seed varies the traffic only. What a cluster costs to
// classify depends on the trained weights (396 against 487 us a cluster
// between two training seeds on identical cluster counts), and a model
// per seed put that difference into every pole metric's spread.
const modelSeed = 7

// ringSeed generates the scenes of the frame rings. The scenes are the
// same on every run and the run's seed puts them in an order of its own:
// what a ring costs to count depends on where its people and objects
// stand, and with scenes per seed two seeds' median frames differed by a
// tenth on the same host, run after run.
const ringSeed = 11

// refCount is what sequential Pipeline.Count says about one ring frame.
type refCount struct{ count, clusters int }

// poleSetup is everything a pole workload prepares before warm-up that
// does not hold a socket.
type poleSetup struct {
	clf  classifier
	ring []frame
	ref  []refCount
	mae  float64 // mean |reference count - ground truth| over the ring
}

// stratifiedRing generates n scenes in which every people count from
// minPeople to maxPeople occurs equally often (to within one frame), and
// returns them in the order the run's seed gives them.
func stratifiedRing(seed int64, spec poleSpec) []frame {
	span := spec.maxPeople - spec.minPeople + 1
	people := make([]int, spec.ringFrames)
	for i := range people {
		people[i] = spec.minPeople + i%span
	}
	ring := crowdRing(ringSeed, people, spec.objects)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ring), func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	return ring
}

// poleModel is the classifier of the run: loaded from the file run.sh
// trained it into, or trained here when the binary runs without one.
func poleModel(path string) (classifier, error) {
	if path != "" {
		return loadModel(path)
	}
	return trainModel(modelSeed)
}

func preparePoles(rc runConfig, spec poleSpec) (*poleSetup, error) {
	clf, err := poleModel(rc.modelPath)
	if err != nil {
		return nil, fmt.Errorf("HAWC model: %w", err)
	}
	su := &poleSetup{clf: clf, ring: stratifiedRing(rc.seed+1, spec)}
	p := newPipeline(clf, nil, true)
	su.ref = make([]refCount, len(su.ring))
	for i, f := range su.ring {
		c, k := countFrame(p, f)
		su.ref[i] = refCount{c, k}
		su.mae += float64(abs(c - frameTruth(f)))
	}
	su.mae /= float64(len(su.ring))
	if rc.corruptRef {
		su.ref[0].count++
	}
	return su, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scheduledSource is the benchmark's pole.FrameSource: it releases ring
// frames at the schedule's due instants (capture = the due instant), or
// as fast as the pole's scheduler takes them when there is no schedule,
// and logs each release. It ends at the end of the plan.
type scheduledSource struct {
	clk      clock
	ring     []frame
	offset   int             // ring position of this pole's first frame
	schedule []time.Duration // nil = unpaced
	end      int64
	log      *ingestLog
	next     int
}

var _ frameSource = (*scheduledSource)(nil)

func (s *scheduledSource) NextFrame() (frame, error) {
	k := s.next
	due := s.clk.now()
	if s.schedule != nil {
		if k >= len(s.schedule) {
			return frame{}, io.EOF
		}
		due = int64(s.schedule[k])
		s.clk.waitUntil(due)
	} else if due >= s.end {
		return frame{}, io.EOF
	}
	s.next++
	s.log.add(tracked{due: due, rel: s.clk.now()})
	return s.ring[s.ringIndex(k)], nil
}

func (s *scheduledSource) ringIndex(k int) int { return (s.offset + k) % len(s.ring) }

// unreleased is how many scheduled frames were never captured.
func (s *scheduledSource) unreleased() int64 {
	if s.schedule == nil {
		return 0
	}
	return int64(len(s.schedule) - s.next)
}

// drainTimeout bounds every wait for in-flight work after a window.
const drainTimeout = 20 * time.Second

// runPoleWorkload runs walkway or crowd: real pole nodes behind the tap,
// the deployment backend, and the watermark poller on one HTTP
// connection.
func runPoleWorkload(rc runConfig, spec poleSpec) (*outcome, error) {
	started := time.Now()
	su, err := preparePoles(rc, spec)
	if err != nil {
		return nil, err
	}
	fails := &failures{}
	tr := newTracer()
	reg := newRegistry()
	srv, err := startBackend(backendOptions{historyDir: rc.historyDir(), reg: reg})
	if err != nil {
		return nil, err
	}
	defer backendClose(srv)
	clk := clock{base: started}

	nPoles := max(1, runtime.NumCPU()-1)
	logs := map[uint32]*ingestLog{}
	sources := make([]*scheduledSource, nPoles)
	for i := range sources {
		id := uint32(i + 1)
		logs[id] = &ingestLog{pole: id}
		sources[i] = &scheduledSource{clk: clk, ring: su.ring, offset: i * len(su.ring) / nPoles, log: logs[id]}
	}

	// The tap sees every report and ack: it stamps report_tx and ack_rx
	// and holds each report to the reference count of its ring frame.
	onReport := func(body []byte, at int64) {
		r, err := decodeReport(body)
		l := logs[r.pole]
		if err != nil || l == nil || !l.stamp(r.seq, func(t *tracked) { t.tx, t.latencyUS = at, r.latencyUS }) {
			fails.transport.Add(1)
			return
		}
		ref := su.ref[sources[r.pole-1].ringIndex(int(r.seq-1))]
		if int(r.count) != ref.count || int(r.clusters) != ref.clusters {
			fails.count.Add(1)
		}
	}
	onAck := func(pole uint32, seq uint64, at int64) {
		l := logs[pole]
		if l == nil || !l.stamp(seq, func(t *tracked) {
			t.ack = at
			enq := t.tx - int64(t.latencyUS)*1000
			tr.add("source_wait", "frame_latency", pole, seq, t.due, enq)
			tr.add("stream_e2e", "frame_latency", pole, seq, enq, t.tx)
			tr.add("frame_latency", "freshness", pole, seq, t.due, t.tx)
			tr.add("ack_rtt", "freshness", pole, seq, t.tx, at)
		}) {
			fails.transport.Add(1)
		}
	}
	tp, err := startTap(backendAddr(srv), clk, fails, onReport, onAck)
	if err != nil {
		return nil, err
	}
	defer tp.close()

	nodes := make([]poleNode, nPoles)
	for i := range nodes {
		id := uint32(i + 1)
		nodes[i], err = dialPole(id, zoneName(id, poleZones), tp.addr(), newPipeline(su.clf, reg, false), sources[i], reg)
		if err != nil {
			return nil, fmt.Errorf("dial pole %d: %w", id, err)
		}
	}
	if err := awaitPoles(srv, nPoles, 0); err != nil {
		return nil, err
	}

	dash := &dashboard{clk: clk, client: newAPIClient(backendAPIAddr(srv), fails), tr: tr}
	defer dash.client.close()
	for i := range nodes {
		dash.logs = append(dash.logs, logs[uint32(i+1)])
	}
	// One lookup per pole before warm-up: the first snapshot that holds
	// every pole has been observed over HTTP, so no request can 404.
	for _, l := range dash.logs {
		dash.lookup(l, clk.now())
	}

	setup := time.Since(started)
	warmHeap()
	pl := makePlan(clk.now(), rc.seconds, rc.trace)
	rng := rand.New(rand.NewSource(rc.seed + 2))
	for _, s := range sources {
		s.end = pl.end()
		if spec.rateHz > 0 {
			s.schedule = poissonSchedule(rng, spec.rateHz, time.Duration(pl.start), time.Duration(pl.end()-pl.start))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := runPole(ctx, n); err != nil && !errors.Is(err, context.Canceled) {
				fails.transport.Add(1)
				fmt.Printf("pole %d: %v\n", i+1, err)
			}
		}()
	}
	var stop atomic.Bool
	var giveUp atomic.Int64
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		dash.pollUnseen(&stop, &giveUp)
	}()

	before, after := measurePhase(clk, pl, tr)

	// Sources end at the plan's end; the poles then flush what is in
	// flight and hang up.
	polesDone := make(chan struct{})
	go func() { wg.Wait(); close(polesDone) }()
	select {
	case <-polesDone:
	case <-time.After(drainTimeout):
		cancel()
		<-polesDone
	}
	giveUp.Store(clk.now() + int64(2*time.Second))
	stop.Store(true)
	<-pollDone

	obs := &observations{dash: dash, pacedIngest: spec.rateHz > 0, totalPoles: nPoles}
	for i, l := range dash.logs {
		obs.logs = append(obs.logs, l)
		obs.unreleased += sources[i].unreleased()
		verifyPole(srv, l, sources[i], su.ref, fails)
	}
	out := newOutcome(rc, obs, pl, fails, setup, before, after)
	out.layers.set("count_mae", su.mae, len(su.ring))
	if rc.trace {
		var gap time.Duration
		if spec.rateHz > 0 {
			gap = time.Duration(float64(time.Second) / spec.rateHz)
		}
		poleLedger(out, tr, clk, su, gap)
		if err := rc.writeSpans(tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// awaitPoles waits until a forced snapshot holds nPoles poles with at
// least minReports reports in all: registration has reached the read
// path.
func awaitPoles(srv server, nPoles int, minReports int64) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		poles, reports := campusTotals(srv)
		if poles == nPoles && reports >= minReports {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registration: snapshot holds %d poles and %d reports, want %d and %d", poles, reports, nPoles, minReports)
		}
		time.Sleep(time.Millisecond)
	}
}

// measurePhase sleeps through the plan and samples the process at the
// edges of the phase the per-layer window metrics come from. The tracer
// is on for exactly the traced phase.
func measurePhase(clk clock, pl plan, tr *tracer) (before, after procSample) {
	m := pl.measured()
	clk.sleepUntil(m.from)
	tr.on.Store(pl.traced.to > 0)
	before = sampleProcess()
	clk.sleepUntil(m.to)
	after = sampleProcess()
	tr.on.Store(false)
	clk.sleepUntil(pl.end())
	return before, after
}

// verifyPole is the after-window half of the correctness gate: every
// released frame was acked and seen over HTTP, and the backend's totals
// for the pole equal the frames acked and the sum of their reference
// counts.
func verifyPole(srv server, l *ingestLog, src *scheduledSource, ref []refCount, fails *failures) {
	acked, want := 0, int64(0)
	for k, r := range l.snapshot() {
		if r.ack == 0 || r.vis == 0 {
			fails.lost.Add(1)
		}
		if r.ack != 0 {
			acked++
			want += int64(ref[src.ringIndex(k)].count)
		}
	}
	reports, total, ok := poleTotals(srv, l.pole)
	if !ok || reports != acked || total != want {
		fails.count.Add(1)
		fmt.Printf("pole %d: backend holds %d reports totalling %d, want %d totalling %d\n", l.pole, reports, total, acked, want)
	}
}
