package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The ledger: after a traced window the benchmark replays the workload's
// own inputs through each layer's public entry point in one goroutine and
// times the calls from outside. Its numbers say what a layer costs when
// nothing else runs; the window's say what the system did under load.

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sink keeps the codec loops' results alive.
var sink uint64

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// poleLedger replays the ring. Per frame it times sequential
// Pipeline.Count and the four layers Count is made of (Count first on
// even frames, the layers first on odd ones, so that neither always finds
// the frame in cache), and lays the layer spans end to end inside the
// frame's span, so the frame span's self time is what Count costs beyond
// its layers. gap is the workload's mean time between captures, 0 when it
// is unpaced.
func poleLedger(out *outcome, tr *tracer, clk clock, su *poleSetup, gap time.Duration) {
	m, n := out.layers, len(su.ring)
	perFrame := func(d time.Duration) float64 { return us(d) / float64(n) }
	plain := newPipeline(su.clf, nil, true)
	int8clf, qerr := quantizeModel(su.clf, trainingSamples(modelSeed))
	if qerr != nil {
		fmt.Println("ledger: quantize:", qerr)
	}
	rp := newStageReplay()
	var tCount, tGround, tCluster, tSnap, tClassify, tInt8, tIndex time.Duration
	var points, ingested, clusters, noise, kept, batches, batchBytes int
	tr.on.Store(true)
	for i, f := range su.ring {
		var count int
		var dCount time.Duration
		timeCount := func() {
			t0 := time.Now()
			count, _ = countFrame(plain, f)
			dCount = time.Since(t0)
		}
		start := clk.now()
		if i%2 == 0 {
			timeCount()
		}
		t1 := time.Now()
		in := rp.ground(f)
		t2 := time.Now()
		nc, nz := rp.cluster()
		t3 := time.Now()
		k := rp.snap(uint64(i))
		t4 := time.Now()
		humans, nb := rp.classify(su.clf)
		t5 := time.Now()
		if i%2 == 1 {
			timeCount()
		}
		if count != su.ref[i].count || humans != su.ref[i].count || k != su.ref[i].clusters {
			out.fails.count.Add(1)
		}
		tCount += dCount
		tGround += t2.Sub(t1)
		tCluster += t3.Sub(t2)
		tSnap += t4.Sub(t3)
		tClassify += t5.Sub(t4)
		points += framePoints(f)
		ingested += in
		clusters += nc
		noise += nz
		kept += k
		batches += nb
		batchBytes += rp.batchBytes()

		seq, at := uint64(i+1), start
		tr.add("frame", "", 0, seq, start, start+int64(dCount))
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"ground", t2.Sub(t1)}, {"cluster", t3.Sub(t2)}, {"wire_snap", t4.Sub(t3)}, {"classify", t5.Sub(t4)}} {
			tr.add(c.name, "frame", 0, seq, at, at+int64(c.d))
			at += int64(c.d)
		}

		// Outside the frame span: the same kept clusters through the int8
		// model, and the frame's one spatial index build.
		if int8clf != nil {
			t6 := time.Now()
			rp.classify(int8clf)
			tInt8 += time.Since(t6)
		}
		t7 := time.Now()
		rp.indexBuild()
		tIndex += time.Since(t7)
	}
	tr.on.Store(false)

	m.set("ground.us_per_frame", perFrame(tGround), n)
	m.set("ground.points_kept_ratio", float64(ingested)/float64(max(points, 1)), points)
	m.set("cluster.us_per_frame", perFrame(tCluster), n)
	m.set("cluster.clusters_per_frame", float64(clusters)/float64(n), n)
	m.set("cluster.noise_ratio", float64(noise)/float64(max(ingested, 1)), ingested)
	m.set("spatial.index_build_us_per_frame", perFrame(tIndex), n)
	m.set("wire.snap_us_per_frame", perFrame(tSnap), n)
	m.set("wire.batch_bytes_per_frame", float64(batchBytes)/float64(n), n)
	m.set("models.classify_us_per_frame", perFrame(tClassify), n)
	m.set("models.classify_us_per_cluster", us(tClassify)/float64(max(kept, 1)), kept)
	m.set("models.batch_fill_ratio", float64(kept)/float64(max(batches*batchSize, 1)), batches)
	if int8clf != nil {
		m.set("models.classify_int8_us_per_cluster", us(tInt8)/float64(max(kept, 1)), kept)
	}
	m.set("counting.count_us_per_frame", perFrame(tCount), n)
	m.set("counting.overhead_us_per_frame", perFrame(tCount-tGround-tCluster-tSnap-tClassify), n)
	if gap > 0 {
		// A paced pole counts each frame on cores that have been idle since
		// the last one, through the streaming scheduler. Its latency in
		// isolation is what a frame's latency should come to where nothing
		// queues: the layers above, the scheduler's hand-offs and the cold
		// start. The tap, the report send and contention with the rest of
		// the process are what is left over.
		sample := make([]frame, 0, idleSample)
		for i := 0; i < n; i += max(1, n/idleSample) {
			sample = append(sample, su.ring[i])
		}
		_, e2e := streamFrames(context.Background(), newPipeline(su.clf, nil, false), sample, gap)
		idle := make([]float64, len(e2e))
		for i, d := range e2e {
			idle[i] = float64(d) / 1e6
		}
		m.setDist("counting.stream_idle_e2e_p50_ms", idle)
		if lat := p50(out.traced.frameLat); lat > 0 && len(idle) > 0 {
			m.set("ledger.residual_ratio", math.Abs(lat-p50(idle))/lat, len(out.traced.frameLat))
		}
	}

	// Steady-state allocations of Count, over a slice of the ring.
	sample := su.ring[:min(32, n)]
	before := mallocs()
	for _, f := range sample {
		countFrame(plain, f)
	}
	m.set("counting.allocs_per_frame", float64(mallocs()-before)/float64(len(sample)), len(sample))

	// Instrumentation's bill: the same frame through Count with and
	// without a registry, interleaved so drift hits both sides alike.
	inst := newPipeline(su.clf, newRegistry(), true)
	var tPlain, tInst time.Duration
	for _, f := range su.ring {
		t0 := time.Now()
		countFrame(plain, f)
		t1 := time.Now()
		countFrame(inst, f)
		tInst += time.Since(t1)
		tPlain += t1.Sub(t0)
	}
	m.set("obs.pipeline_overhead_ratio", float64(tInst)/float64(tPlain)-1, 2*n)

	// The streaming scheduler with no network around it.
	t0 := time.Now()
	counts, _ := streamFrames(context.Background(), newPipeline(su.clf, nil, false), su.ring, 0)
	m.set("counting.stream_frames_per_s", float64(n)/time.Since(t0).Seconds(), n)
	for i, c := range counts {
		if c != su.ref[i].count {
			out.fails.count.Add(1)
		}
	}
	if len(counts) != n {
		out.fails.lost.Add(int64(n - len(counts)))
	}
}

// idleSample is how many ring frames the paced ledger streams, each after
// an idle gap.
const idleSample = 32

// Ledger sizes for the fleet side.
const (
	codecOps        = 200000
	soloRounds      = 8 // bursts of closed-loop ingest per backend; a full rebuild after each
	soloBurst       = 250 * time.Millisecond
	dirtyRounds     = 20 // rounds of one report to 1% of the poles; a rebuild after each
	endpointMinRuns = 20
	endpointBudget  = 40 * time.Millisecond
	tsdbSamples     = 10000
	tsdbQueryRuns   = 11
)

// fleetLedger times the layers a fleet workload exercises. After the
// window it uses the workload's own backend, now quiet, for the serve and
// HTTP paths, then closes it and reads what its history store wrote.
// Solo ingest, the rebuild and instrumentation's bill need backends
// without a snapshot loop, so that a rebuild happens exactly when the
// ledger asks for one; they are started only now, in the memory the first
// backend gave back, which the runtime still holds mapped.
func fleetLedger(out *outcome, rc runConfig, clk clock, env *fleetEnv, client *apiClient) error {
	m := out.layers
	wireLedger(m)
	if err := tsdbLedger(m); err != nil {
		return fmt.Errorf("tsdb ledger: %w", err)
	}
	if err := endpointLedger(m, env.srv, client); err != nil {
		return fmt.Errorf("endpoint ledger: %w", err)
	}
	env.close() // seals the history store
	if err := diskLedger(m, env.srv, env.historyDir); err != nil {
		return fmt.Errorf("disk ledger: %w", err)
	}
	env.srv = nil
	runtime.GC()
	return soloLedger(m, rc, clk, out.fails)
}

func wireLedger(m *metricSet) {
	now := time.Now()
	var body []byte
	var sum uint64
	t0 := time.Now()
	for i := 0; i < codecOps; i++ {
		body = encodeReport(uint32(i), uint64(i), now, 3)
		r, _ := decodeReport(body) // a body just encoded decodes
		sum += r.seq
	}
	m.set("wire.report_codec_ns_per_op", float64(time.Since(t0))/codecOps, codecOps)
	var buf bytes.Buffer
	t0 = time.Now()
	for i := 0; i < codecOps; i++ {
		buf.Reset()
		_ = writeFrame(&buf, msgReport, body) // a bytes.Buffer does not fail
		_, b, _ := readFrame(&buf)
		sum += uint64(len(b))
	}
	m.set("wire.frame_io_ns_per_op", float64(time.Since(t0))/codecOps, codecOps)
	buf.Reset()
	_ = writeFrame(&buf, msgReport, body)
	m.set("wire.bytes_per_report", float64(buf.Len()), 1)
	sink = sum
}

func tsdbLedger(m *metricSet) error {
	h, err := newHistorySeries()
	if err != nil {
		return err
	}
	defer h.close()
	const step = int64(50 * time.Millisecond)
	t0 := time.Now()
	for i := 0; i < tsdbSamples; i++ {
		h.append(int64(i)*step, float64(2+i%7))
	}
	m.set("tsdb.append_ns_per_sample", float64(time.Since(t0))/tsdbSamples, tsdbSamples)
	end := tsdbSamples * step
	raw, buckets := make([]float64, tsdbQueryRuns), make([]float64, tsdbQueryRuns)
	for i := range raw {
		t0 := time.Now()
		n, err := h.queryRaw(0, end)
		raw[i] = us(time.Since(t0))
		if err != nil || n != tsdbSamples {
			return fmt.Errorf("raw query returned %d samples: %v", n, err)
		}
		t0 = time.Now()
		n, err = h.queryBuckets(0, end, end/60)
		buckets[i] = us(time.Since(t0))
		if err != nil || n == 0 {
			return fmt.Errorf("bucket query returned %d buckets: %v", n, err)
		}
	}
	m.set("tsdb.query_raw_us", median(raw), tsdbQueryRuns)
	m.set("tsdb.query_buckets_us", median(buckets), tsdbQueryRuns)
	return nil
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// endpointLedger times every endpoint twice on the quiet post-window
// backend: the handler alone into a discarding writer, and a GET over
// loopback on the dashboard's own connection.
func endpointLedger(m *metricSet, srv server, client *apiClient) error {
	const pole = fleetPoles / 2
	rawPath, _ := historyPath(pole, true)
	bucketPath, _ := historyPath(pole, false)
	paths := [...]string{
		qCampus: "/api/campus", qPoles: "/api/poles", qPoleID: fmt.Sprintf("/api/poles/%d", pole),
		qZones: "/api/zones", qZoneID: "/api/zones/" + zoneName(pole, fleetZones), qTop: "/api/top?k=10",
		qAlerts: "/api/alerts", qHistoryRaw: rawPath, qHistoryBucket: bucketPath, qNotModified: "/api/campus",
	}
	status, _, etag := client.get("/api/campus", "", false)
	if status != http.StatusOK || etag == "" {
		return fmt.Errorf("GET /api/campus: status %d, etag %q", status, etag)
	}
	handler := backendHandler(srv)
	for kind, path := range paths {
		inm, want := "", http.StatusOK
		if kind == qNotModified {
			inm, want = etag, http.StatusNotModified
		}
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := discardWriter{h: http.Header{}}
		serve := timeRuns(func() { handler.ServeHTTP(w, req) })
		var bodyBytes int64
		get := timeRuns(func() {
			var got int
			if got, bodyBytes, _ = client.get(path, inm, false); got != want {
				err = fmt.Errorf("GET %s: status %d, want %d", path, got, want)
			}
		})
		if err != nil {
			return err
		}
		name := endpointNames[kind]
		m.set("backend.serve_us."+name, median(serve), len(serve))
		m.set("backend.http_us."+name, median(get), len(get))
		switch kind {
		case qPoles, qZoneID, qCampus:
			m.set("backend.body_bytes."+name, float64(bodyBytes), 1)
		}
	}
	return nil
}

// timeRuns calls f at least endpointMinRuns times and until
// endpointBudget is spent, and returns each call's microseconds.
func timeRuns(f func()) []float64 {
	var runs []float64
	for start := time.Now(); len(runs) < endpointMinRuns || time.Since(start) < endpointBudget; {
		t0 := time.Now()
		f()
		runs = append(runs, us(time.Since(t0)))
	}
	return runs
}

// soloLedger measures ingest with nothing beside it, with and without a
// metrics registry, and the snapshot rebuild at 10,000 poles with every
// pole dirty and with 1% dirty. Neither backend runs a snapshot loop, so
// a rebuild happens exactly when the ledger asks for one.
func soloLedger(m *metricSet, rc runConfig, clk clock, fails *failures) error {
	quiet := newTracer()
	var envs [2]*fleetEnv // with, without registry
	for i := range envs {
		o := backendOptions{historyDir: rc.historyDir(), noSnapshot: true}
		if i == 0 {
			o.reg = newRegistry()
		}
		e, err := setupFleet(o, clk, ingestWindow, fails, quiet)
		if err != nil {
			return fmt.Errorf("solo backend: %w", err)
		}
		defer e.close()
		envs[i] = e
	}
	// Bursts of the closed loop alternate between the two backends, so
	// drift hits both alike; each burst reports for every pole more than
	// once, so the rebuild after it finds every pole dirty.
	var acked [2]int64
	var spent [2]time.Duration
	rebuilds := make([]float64, 0, soloRounds)
	for r := 0; r < soloRounds; r++ {
		for i, e := range envs {
			n, d, err := e.burst(clk, soloBurst, fails)
			if err != nil {
				return err
			}
			acked[i] += n
			spent[i] += d
		}
		rebuilds = append(rebuilds, timedRebuild(envs[0].srv))
	}
	rate := func(i int) float64 { return float64(acked[i]) / spent[i].Seconds() }
	m.set("backend.ingest_solo_reports_per_s", rate(0), int(acked[0]))
	m.set("obs.backend_overhead_ratio", rate(1)/rate(0)-1, int(acked[0]+acked[1]))
	m.set("backend.rebuild_ms", median(rebuilds), soloRounds)
	rebuilds = rebuilds[:0]
	for r := 0; r < dirtyRounds; r++ {
		if err := envs[0].reportRound(100); err != nil {
			return err
		}
		rebuilds = append(rebuilds, timedRebuild(envs[0].srv))
	}
	m.set("backend.rebuild_dirty1pct_ms", median(rebuilds), dirtyRounds)
	return nil
}

// timedRebuild forces one snapshot rebuild and returns its milliseconds.
// It collects first: no collection then runs beside the rebuild, and the
// garbage of thirty rebuilds never piles up into memory the process has
// not touched before.
func timedRebuild(srv server) float64 {
	runtime.GC()
	return float64(rebuildSnapshot(srv)) / 1e6
}

// burst runs every connection's closed loop for d and returns the reports
// acked and the time until the last ack.
func (e *fleetEnv) burst(clk clock, d time.Duration, fails *failures) (int64, time.Duration, error) {
	var before int64
	for _, c := range e.conns {
		before += c.acked.Load()
	}
	start := clk.now()
	var wg sync.WaitGroup
	for i, c := range e.conns {
		s := &reportSender{conn: c, poles: e.owned[i], rng: rand.New(rand.NewSource(int64(i))), fails: fails}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(clk, start+int64(d))
		}()
	}
	wg.Wait()
	after := int64(0)
	for _, c := range e.conns {
		if err := c.awaitAcks(drainTimeout); err != nil {
			return 0, 0, err
		}
		after += c.acked.Load()
	}
	return after - before, time.Duration(clk.now() - start), nil
}

// reportRound sends one report for every stride-th pole of every
// connection, closed loop, and waits for the acks.
func (e *fleetEnv) reportRound(stride int) error {
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < len(e.owned[i]); j += stride {
				p := e.owned[i][j]
				if errs[i] = c.send(p, 2+p%7, 0); errs[i] != nil {
					return
				}
			}
			errs[i] = c.awaitAcks(drainTimeout)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// diskLedger reads what the workload's history store wrote, after the
// backend has closed and sealed it.
func diskLedger(m *metricSet, srv server, dir string) error {
	m.set("tsdb.bytes_per_sample", historyBytesPerSample(srv), 0)
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	m.set("tsdb.segment_bytes_written", float64(total), 0)
	return err
}
