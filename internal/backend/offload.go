// offload.go is the backend side of the edge/cloud classify offload:
// MsgClusterBatch frames from saturated or overheating poles land in a
// bounded queue; worker goroutines dequantize them into pooled
// backing-cloud buffers, coalesce clusters across poles into one
// GEMM pass through the models.BatchClassifier (bigger batches than any
// single pole's frame ever forms — the batch-32 kernel sweet spot), and
// answer each pole with a MsgClassifyResult keyed by (pole, frame seq).
// Counts still arrive through the pole's normal MsgCountReport path, so
// offloaded frames merge into the registry identically to edge-
// classified ones.
package backend

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"hawccc/internal/geom"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// Offload service defaults.
const (
	// DefaultOffloadQueue bounds the batch queue; a full queue refuses
	// the pole's frame (its connection errors and the pole classifies
	// locally) rather than growing without bound.
	DefaultOffloadQueue = 256
	// DefaultOffloadMaxBatch caps the clusters coalesced into one
	// forward pass, matching the GEMM kernels' batch-32 sweet spot.
	DefaultOffloadMaxBatch = 32
)

// lockedConn serializes frame writes on one pole connection.
// wire.Conn is not safe for concurrent writers, and offload replies
// come from worker goroutines while the handler goroutine writes acks
// and alerts on the same connection.
type lockedConn struct {
	mu sync.Mutex
	wc *wire.Conn
}

func (c *lockedConn) send(t wire.MsgType, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wc.Send(t, body)
}

// offloadJob is one pole's batch waiting for a classify pass, plus the
// connection its labels go back on.
type offloadJob struct {
	batch wire.ClusterBatch
	reply *lockedConn
}

// offloadObs is the service's instrument set (nil fields are no-ops).
type offloadObs struct {
	batches  *obs.Counter
	clusters *obs.Counter
	passes   *obs.Counter
	depth    *obs.Gauge
	classify *obs.Histogram
}

// offloadService owns the bounded queue and the coalescing workers.
type offloadService struct {
	s   *Server
	clf models.BatchClassifier
	q   chan offloadJob
	m   offloadObs
}

// newOffloadService registers the service's series and starts the
// worker pool on the server's lifecycle.
func newOffloadService(s *Server) *offloadService {
	reg := s.cfg.Obs
	o := &offloadService{
		s:   s,
		clf: s.cfg.Classifier,
		q:   make(chan offloadJob, DefaultOffloadQueue),
		m: offloadObs{
			batches: reg.Counter("backend_offload_batches_total",
				"cluster batches received from poles shedding classification"),
			clusters: reg.Counter("backend_offload_clusters_total",
				"clusters classified on behalf of poles"),
			passes: reg.Counter("backend_offload_passes_total",
				"batched forward passes run by the offload workers"),
			depth: reg.Gauge("backend_offload_queue_depth",
				"cluster batches waiting for an offload worker"),
			classify: reg.Histogram("backend_offload_classify_seconds",
				"latency of one coalesced offload classify pass (dequantize + forward)",
				obs.LatencyBuckets()),
		},
	}
	for w := 0; w < runtime.NumCPU(); w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			o.worker(s.loopCtx)
		}()
	}
	return o
}

// enqueue hands one decoded batch to the worker pool. A full queue or a
// shutting-down server refuses the batch — the pole's connection errors
// and its frame classifies locally, which is the designed degradation.
func (o *offloadService) enqueue(batch wire.ClusterBatch, reply *lockedConn) error {
	o.m.batches.Inc()
	select {
	case o.q <- offloadJob{batch: batch, reply: reply}:
		o.m.depth.Set(float64(len(o.q)))
		return nil
	default:
		return fmt.Errorf("backend: offload queue full (%d batches)", cap(o.q))
	}
}

// offloadScratch is one worker's reusable buffers: the backing cloud
// whose sub-slices feed the classifier and the per-pass job/cluster
// headers. Buffers are append-grown and reused, so a worker reaches a
// steady state with no per-pass allocations beyond the classifier's
// own.
type offloadScratch struct {
	jobs    []offloadJob
	backing geom.Cloud
	clouds  []geom.Cloud
}

// worker drains the queue: each pass takes one batch, opportunistically
// coalesces more queued batches (across poles) until
// DefaultOffloadMaxBatch clusters are in hand, runs one batched forward
// pass, and answers every pole.
func (o *offloadService) worker(ctx context.Context) {
	var sc offloadScratch
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-o.q:
			sc.jobs = append(sc.jobs[:0], job)
			n := len(job.batch.Clusters)
		coalesce:
			for n < DefaultOffloadMaxBatch {
				select {
				case more := <-o.q:
					sc.jobs = append(sc.jobs, more)
					n += len(more.batch.Clusters)
				default:
					break coalesce
				}
			}
			o.m.depth.Set(float64(len(o.q)))
			o.classifyJobs(&sc)
		}
	}
}

// classifyJobs dequantizes every cluster of the pass into the scratch
// buffers, runs one PredictHumans call, and replies per job.
// Dequantization goes through ClusterBatch.AppendCloud — the same
// float64 arithmetic the pole's classification lattice uses — so the
// classifier sees clouds bit-identical to what the pole would have
// classified locally (the offload label-equivalence contract; a
// float32 staging detour would break it by ~6 µm of rounding, enough
// to reseed HAWC's content-keyed padding noise).
func (o *offloadService) classifyJobs(sc *offloadScratch) {
	t0 := time.Now()
	// Pre-size the widened backing cloud so sub-slices handed to the
	// classifier stay valid — an append-driven reallocation mid-build
	// would orphan the earlier ones.
	total := 0
	for i := range sc.jobs {
		total += sc.jobs[i].batch.Points()
	}
	if cap(sc.backing) < total {
		sc.backing = make(geom.Cloud, 0, total)
	}
	sc.backing = sc.backing[:0]
	sc.clouds = sc.clouds[:0]
	for ji := range sc.jobs {
		b := &sc.jobs[ji].batch
		for ci := range b.Clusters {
			start := len(sc.backing)
			sc.backing = b.AppendCloud(ci, sc.backing)
			sc.clouds = append(sc.clouds, sc.backing[start:len(sc.backing):len(sc.backing)])
		}
	}
	labels := o.clf.PredictHumans(sc.clouds)
	o.m.passes.Inc()
	o.m.clusters.Add(uint64(len(sc.clouds)))
	o.m.classify.ObserveDuration(time.Since(t0))
	off := 0
	for ji := range sc.jobs {
		job := &sc.jobs[ji]
		k := len(job.batch.Clusters)
		res := wire.ClassifyResult{
			PoleID: job.batch.PoleID,
			Seq:    job.batch.Seq,
			Labels: labels[off : off+k],
		}
		off += k
		if err := job.reply.send(wire.MsgClassifyResult, wire.EncodeClassifyResult(res)); err != nil {
			// The pole's connection died while its batch was queued; its
			// offloader fails the in-flight call and the frame classifies
			// locally. Nothing to do here beyond logging.
			o.s.logf("backend: offload reply to pole %d: %v", job.batch.PoleID, err)
		}
	}
}

// handleClusterBatch is the wire entry point, called by the connection
// handler.
func (s *Server) handleClusterBatch(body []byte, reply *lockedConn) error {
	batch, err := wire.DecodeClusterBatch(body)
	if err != nil {
		return err
	}
	if s.off == nil {
		return fmt.Errorf("backend: pole %d offloaded a cluster batch but no classifier is configured", batch.PoleID)
	}
	// Classifier version skew: answering with our weights would break the
	// edge/offload bit-equality contract, so reject the batch (the pole
	// falls back to its local classify stage) and flag the pole once.
	if batch.ModelVersion != 0 && s.modelVersion != 0 && batch.ModelVersion != s.modelVersion {
		s.m.versionSkew.Inc()
		s.checkModelSkew(batch.PoleID, batch.ModelVersion)
		return fmt.Errorf("backend: pole %d offload batch carries classifier version %#x, backend runs %#x", batch.PoleID, batch.ModelVersion, s.modelVersion)
	}
	if s.loopCtx.Err() != nil {
		return net.ErrClosed
	}
	return s.off.enqueue(batch, reply)
}
