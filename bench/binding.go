package main

// binding.go is the only file of the benchmark that imports the
// repository's packages. Every other file reaches the system under test
// through the names declared here, so a refactor that renames or moves a
// symbol re-points this file and nothing else. The full list of bound
// symbols is repeated in README.md ("Binding list").

import (
	"context"
	"io"
	"net/http"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/cluster"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/pole"
	"hawccc/internal/spatial"
	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// Opaque handles: other files hold these but never touch their fields
// or methods.
type (
	frame      = dataset.Frame
	sample     = dataset.Sample
	classifier = *models.HAWC
	pipeline   = *counting.Pipeline
	registry   = *obs.Registry
	server     = *backend.Server
	wireConn   = *wire.Conn
	poleNode   = *pole.Node
)

// frameSource is what a pole pulls frames from; the benchmark's scheduled
// source implements it.
type frameSource = pole.FrameSource

// The deployment configuration the issue fixes.
const (
	crowdingLimit = 30
	overheatLimit = 50
	trainPerClass = 250
	trainEpochs   = 10
	batchSize     = counting.DefaultBatchSize
	minCluster    = dataset.MinVisiblePoints
	snapshotTick  = backend.DefaultSnapshotInterval
	historyTick   = tsdb.DefaultSampleInterval // the backend's history loop
)

// Wire message types the tap and the fleet generators look at.
const (
	msgHello  = byte(wire.MsgHello)
	msgReport = byte(wire.MsgCountReport)
	msgAck    = byte(wire.MsgAck)
	msgAlert  = byte(wire.MsgAlert)
)

func newRegistry() registry { return obs.NewRegistry() }

// trainingSamples is the classification set cmd/polesim trains on.
func trainingSamples(seed int64) []sample {
	return dataset.NewGenerator(seed).Classification(trainPerClass)
}

// trainModel trains the float32 HAWC exactly as cmd/polesim does.
func trainModel(seed int64) (classifier, error) {
	clf := models.NewHAWC()
	err := clf.Train(trainingSamples(seed), models.TrainConfig{Epochs: trainEpochs, Seed: seed})
	return clf, err
}

// saveModel and loadModel keep a trained model in a file, so that run.sh
// trains it once per checkout and every run loads it.
func saveModel(path string, clf classifier) error { return models.SaveHAWCFile(path, clf) }
func loadModel(path string) (classifier, error)   { return models.LoadHAWCFile(path) }

// quantizeModel calibrates the int8 model on 100 of the training samples
// spread over both classes, the calibration set size the paper uses.
func quantizeModel(clf classifier, train []sample) (classifier, error) {
	calib := make([]sample, 0, 100)
	for i := 0; i < len(train); i += max(1, len(train)/100) {
		calib = append(calib, train[i])
	}
	return clf.Quantize(calib)
}

// crowdRing generates one full-scene lidarsim frame per entry of people,
// holding that many pedestrians.
func crowdRing(seed int64, people []int, objects int) []frame {
	g := dataset.NewGenerator(seed)
	ring := make([]frame, 0, len(people))
	for _, k := range people {
		ring = append(ring, g.CrowdFrames(1, k, k, objects)...)
	}
	return ring
}

func frameTruth(f frame) int  { return f.Count }
func framePoints(f frame) int { return len(f.Cloud) }

// newPipeline builds the deployment pipeline; a nil registry leaves it
// uninstrumented. sequential pins the one-shot Count path to one
// goroutine (the ledger's single-thread baseline).
func newPipeline(clf classifier, reg registry, sequential bool) pipeline {
	p := counting.New(clf).Instrument(reg)
	if sequential {
		p.Parallelism = 1
	}
	return p
}

// countFrame is the sequential reference: count and kept clusters.
func countFrame(p pipeline, f frame) (count, clusters int) {
	r := p.Count(f.Cloud)
	return r.Count, r.Clusters
}

// streamFrames pushes frames through the streaming scheduler with the
// default StreamConfig and no network, one every gap (0 = as fast as the
// scheduler takes them), and returns each frame's count and its latency
// through the scheduler.
func streamFrames(ctx context.Context, p pipeline, frames []frame, gap time.Duration) (counts []int, e2e []time.Duration) {
	in := make(chan geom.Cloud)
	go func() {
		defer close(in)
		for _, f := range frames {
			time.Sleep(gap)
			select {
			case in <- f.Cloud:
			case <-ctx.Done():
				return
			}
		}
	}()
	for r := range p.StreamWith(ctx, in, counting.StreamConfig{}) {
		counts = append(counts, r.Count)
		e2e = append(e2e, r.E2E)
	}
	return counts, e2e
}

// backendOptions are the only backend settings the benchmark varies.
type backendOptions struct {
	historyDir string   // "" = no history store
	reg        registry // nil = no metrics registry
	noSnapshot bool     // SnapshotInterval -1 (ledger solo ingest)
}

// startBackend starts the backend in the deployment configuration.
func startBackend(o backendOptions) (server, error) {
	cfg := backend.Config{
		Addr:          "127.0.0.1:0",
		APIAddr:       "127.0.0.1:0",
		CrowdingLimit: crowdingLimit,
		OverheatLimit: overheatLimit,
		Obs:           o.reg,
	}
	if o.historyDir != "" {
		cfg.History = &tsdb.Config{Dir: o.historyDir}
	}
	if o.noSnapshot {
		cfg.SnapshotInterval = -1
	}
	return backend.Listen(cfg)
}

func backendAddr(s server) string          { return s.Addr() }
func backendAPIAddr(s server) string       { return s.APIAddr() }
func backendHandler(s server) http.Handler { return s.APIHandler() }
func backendClose(s server) error          { return s.Close() }

// rebuildSnapshot forces a rebuild and returns how long it took.
func rebuildSnapshot(s server) time.Duration {
	t0 := time.Now()
	s.RebuildSnapshot()
	return time.Since(t0)
}

// campusTotals forces a rebuild and returns the campus rollup.
func campusTotals(s server) (poles int, reports int64) {
	snap := s.RebuildSnapshot()
	return snap.Campus.Poles, snap.Campus.Reports
}

// poleTotals forces a rebuild and returns one pole's aggregates.
func poleTotals(s server, id uint32) (reports int, totalCount int64, ok bool) {
	p, ok := s.RebuildSnapshot().Pole(id)
	return p.Reports, p.TotalCount, ok
}

// historySeriesCount is how many series the backend's history store holds.
func historySeriesCount(s server) int {
	st := s.History()
	if st == nil {
		return 0
	}
	return st.Stats().Series
}

// historyBytesPerSample is the sealed-chunk compression the backend's
// history store reached (0 when nothing has sealed yet).
func historyBytesPerSample(s server) float64 {
	st := s.History()
	if st == nil {
		return 0
	}
	return st.Stats().BytesPerSample
}

// dialPole connects one real pole node through addr (the tap).
func dialPole(id uint32, zone, addr string, p pipeline, src frameSource, reg registry) (poleNode, error) {
	return pole.Dial(pole.Config{
		PoleID:      id,
		Location:    "walkway-" + zone,
		Zone:        zone,
		BackendAddr: addr,
		Pipeline:    p,
		Source:      src,
		Obs:         reg,
	})
}

func runPole(ctx context.Context, n poleNode) (int, error) { return n.Run(ctx) }

// Wire codec and framed connection.

func newWireConn(rw io.ReadWriter) wireConn { return wire.NewConn(rw) }

func wireSend(c wireConn, t byte, body []byte) error { return c.Send(wire.MsgType(t), body) }

func wireRecv(c wireConn) (byte, []byte, error) {
	t, body, err := c.Recv()
	return byte(t), body, err
}

func encodeHello(id uint32, location, zone string) []byte {
	return wire.EncodeHello(wire.Hello{PoleID: id, Location: location, Zone: zone})
}

// encodeReport builds a synthetic count report the way internal/fleet's
// generator shapes them (one cluster, 1 ms edge latency).
func encodeReport(pole uint32, seq uint64, at time.Time, count uint32) []byte {
	return wire.EncodeCountReport(wire.CountReport{
		PoleID: pole, Seq: seq, Timestamp: at, Count: count, Clusters: 1, LatencyUS: 1000,
	})
}

// reportFields is what the tap reads off a pole's count report.
type reportFields struct {
	pole      uint32
	seq       uint64
	count     uint32
	clusters  uint32
	latencyUS uint32
}

func decodeReport(b []byte) (reportFields, error) {
	r, err := wire.DecodeCountReport(b)
	return reportFields{r.PoleID, r.Seq, r.Count, r.Clusters, r.LatencyUS}, err
}

func decodeAck(b []byte) (uint64, error) {
	a, err := wire.DecodeAck(b)
	return a.Seq, err
}

// writeFrame / readFrame are the unbuffered framing primitives the
// frame_io ledger times.
func writeFrame(w io.Writer, t byte, body []byte) error {
	return wire.WriteFrame(w, wire.MsgType(t), body)
}

func readFrame(r io.Reader) (byte, []byte, error) {
	t, body, err := wire.ReadFrame(r)
	return byte(t), body, err
}

// stageReplay replays one frame through the public entry point of each
// pipeline layer, one call per layer, reusing its buffers the way the
// pipeline's pooled job does. The sequence mirrors Pipeline.Count; the
// ledger checks that it reproduces Count's result on every frame.
type stageReplay struct {
	roi               ground.ROI
	clusterer         counting.ScratchClusterer
	scratch           cluster.Scratch
	index             spatial.FrameIndex
	cropped, ingested geom.Cloud
	clusters, kept    []geom.Cloud
	batch             wire.ClusterBatch
	canon             geom.Cloud
}

func newStageReplay() *stageReplay {
	return &stageReplay{roi: ground.DefaultROI(), clusterer: counting.NewAdaptiveClusterer()}
}

// ground is ROI.CropInto + ground.SegmentInto; it returns points kept.
func (s *stageReplay) ground(f frame) int {
	s.cropped = s.roi.CropInto(s.cropped[:0], f.Cloud)
	s.ingested = ground.SegmentInto(s.ingested[:0], s.cropped, ground.DefaultZMin)
	return len(s.ingested)
}

// cluster is the production scratch clusterer + ClustersInto.
func (s *stageReplay) cluster() (clusters, noise int) {
	cr := s.clusterer.ClusterScratch(&s.scratch, s.ingested)
	s.clusters = cr.ClustersInto(s.ingested, s.clusters)
	return cr.NumClusters, cr.NoiseCount()
}

// indexBuild is the frame's one spatial index build, at the cell edge
// the adaptive clusterer uses.
func (s *stageReplay) indexBuild() {
	s.index.Build(s.ingested, cluster.DefaultAdaptiveConfig().FallbackEps)
}

// snap is the lattice snap of the kept clusters: ClusterBatch.BuildInto
// followed by AppendCloud per cluster. It returns the clusters kept.
func (s *stageReplay) snap(seq uint64) int {
	kept := s.kept[:0]
	for _, c := range s.clusters {
		if len(c) >= minCluster {
			kept = append(kept, c)
		}
	}
	s.kept = kept
	if len(kept) == 0 {
		return 0
	}
	s.batch.BuildInto(0, seq, kept, wire.DefaultQuantScale)
	if total := s.batch.Points(); cap(s.canon) < total {
		s.canon = make(geom.Cloud, 0, total)
	} else {
		s.canon = s.canon[:0]
	}
	for i := range s.batch.Clusters {
		start := len(s.canon)
		s.canon = s.batch.AppendCloud(i, s.canon)
		kept[i] = s.canon[start:len(s.canon):len(s.canon)]
	}
	return len(kept)
}

// batchBytes is the encoded size of the frame's cluster batch.
func (s *stageReplay) batchBytes() int {
	if len(s.kept) == 0 {
		return 0
	}
	return len(wire.EncodeClusterBatch(s.batch))
}

// classify is HAWC.PredictHumans over the kept clusters in pipeline-sized
// batches; it returns humans and forward passes.
func (s *stageReplay) classify(clf classifier) (humans, batches int) {
	for start := 0; start < len(s.kept); start += batchSize {
		end := min(start+batchSize, len(s.kept))
		for _, h := range clf.PredictHumans(s.kept[start:end]) {
			if h {
				humans++
			}
		}
		batches++
	}
	return humans, batches
}

// History store ledger: one series driven through the public API.

type historySeries struct {
	st *tsdb.Store
	sr *tsdb.Series
}

func newHistorySeries() (*historySeries, error) {
	st, err := tsdb.New(tsdb.Config{})
	if err != nil {
		return nil, err
	}
	return &historySeries{st: st, sr: st.Series(1, "count")}, nil
}

func (h *historySeries) append(ts int64, v float64) { h.st.Append(1, "count", ts, v) }

func (h *historySeries) queryRaw(from, to int64) (int, error) {
	s, err := h.sr.QueryRaw(from, to)
	return len(s), err
}

func (h *historySeries) queryBuckets(from, to, step int64) (int, error) {
	b, err := h.sr.QueryBuckets(from, to, step)
	return len(b), err
}

func (h *historySeries) close() error { return h.st.Close() }
