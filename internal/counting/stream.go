// stream.go implements the streaming scheduler: the continuous
// counterpart of Count for a pole that ingests LiDAR sweeps nonstop. A
// feeder turns the input channel into sequenced pooled jobs on one
// bounded queue; Pipeline.Parallelism workers each carry one job from
// ROI crop to count; a reorderer emits the results in input order.
// Memory is bounded by the two queue depths plus the workers, and a slow
// consumer backpressures capture instead of growing a backlog. Per-frame
// outputs are bit-identical to Count's because a worker runs the very
// function Count runs (countJob).
package counting

import (
	"context"
	"sync"
	"time"

	"hawccc/internal/geom"
	"hawccc/internal/obs"
)

// DefaultQueueDepth is the bounded capacity of each scheduler queue when
// StreamConfig.QueueDepth is unset: deep enough to absorb per-frame
// jitter, shallow enough that total in-flight memory stays a handful of
// frames.
const DefaultQueueDepth = 4

// StreamConfig configures one Stream call. The scheduler's width is not
// here: it is Pipeline.Parallelism, the cores the pipeline may use in
// either mode. The zero StreamConfig is the deployment configuration.
type StreamConfig struct {
	// QueueDepth bounds the input queue, the report queue and the output
	// channel (0 selects DefaultQueueDepth). Frames in flight ahead of the
	// reorderer are at most 2*QueueDepth + Parallelism + 1 — two queues,
	// one per worker, one in the feeder's hand — which is the scheduler's
	// whole steady-state footprint beyond the pooled buffers. Kept as a
	// field because tests and the benchmark pin it to make queueing
	// deterministic; no deployment sets it.
	QueueDepth int
}

// withDefaults resolves zero fields to the deployment defaults.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// StreamResult is one counted frame from the streaming scheduler.
type StreamResult struct {
	// Seq is the frame's 0-based position on the input channel; results
	// are delivered in Seq order.
	Seq uint64
	// E2E is the end-to-end latency of this frame through the scheduler:
	// from dequeuing the input to emitting the result, including all
	// queueing (Timing covers only the compute segments).
	E2E time.Duration
	Result
}

// Stream runs the scheduler with the deployment configuration over
// frames until the input channel closes (results for every accepted
// frame are flushed, then the returned channel closes) or ctx is
// canceled (in-flight frames are dropped and the channel closes).
// Results arrive in input order. The scheduler owns all intermediate
// buffering; the caller only ever holds one frame and one result.
//
// A pipeline without a classifier degrades as Count does: every frame
// comes back, in order, with zero counts.
func (p *Pipeline) Stream(ctx context.Context, frames <-chan geom.Cloud) <-chan StreamResult {
	return p.StreamWith(ctx, frames, StreamConfig{})
}

// StreamWith is Stream with an explicit scheduler configuration.
func (p *Pipeline) StreamWith(ctx context.Context, frames <-chan geom.Cloud, cfg StreamConfig) <-chan StreamResult {
	cfg = cfg.withDefaults()
	s := &scheduler{
		p:   p,
		ctx: ctx,
		in:  frames,
		// Buffered so a consumer that lags by a few frames does not
		// stall the reorderer.
		out:     make(chan StreamResult, cfg.QueueDepth),
		qIn:     p.streamQueue(cfg.QueueDepth, "ingest"),
		qReport: p.streamQueue(cfg.QueueDepth, "report"),
		e2e: p.reg.Histogram("hawc_stream_e2e_seconds",
			"end-to-end frame latency through the streaming scheduler (compute + queueing)",
			obs.LatencyBuckets()),
	}
	go s.run()
	return s.out
}

// streamQueue builds one bounded scheduler queue and registers its depth
// gauge and backpressure counter in the pipeline's registry (series
// hawc_stream_queue_depth{stage=...} and
// hawc_stream_backpressure_total{stage=...}; no-ops when the pipeline is
// uninstrumented).
func (p *Pipeline) streamQueue(depth int, stage string) *boundedQ {
	label := obs.L("stage", stage)
	return &boundedQ{
		ch: make(chan *streamJob, depth),
		depth: p.reg.Gauge("hawc_stream_queue_depth",
			"frames waiting in one streaming-scheduler queue", label),
		bp: p.reg.Counter("hawc_stream_backpressure_total",
			"handoffs that blocked on a full scheduler queue", label),
	}
}

// boundedQ is a bounded channel of jobs with queue-depth and
// backpressure accounting. The gauge tracks occupancy approximately
// (incremented after a successful send, decremented after receive),
// which is all a scrape needs.
type boundedQ struct {
	ch    chan *streamJob
	depth *obs.Gauge
	bp    *obs.Counter
}

// send enqueues j, blocking under backpressure; it returns false when
// ctx was canceled before space freed up. A send that cannot complete
// immediately counts one backpressure event for the queue.
func (q *boundedQ) send(ctx context.Context, j *streamJob) bool {
	select {
	case q.ch <- j:
		q.depth.Inc()
		return true
	default:
	}
	q.bp.Inc()
	select {
	case q.ch <- j:
		q.depth.Inc()
		return true
	case <-ctx.Done():
		return false
	}
}

// recv dequeues the next job; ok is false once the queue is closed and
// drained.
func (q *boundedQ) recv() (*streamJob, bool) {
	j, ok := <-q.ch
	if ok {
		q.depth.Dec()
	}
	return j, ok
}

// scheduler is the state of one Stream call.
type scheduler struct {
	p   *Pipeline
	ctx context.Context
	in  <-chan geom.Cloud
	out chan StreamResult

	qIn, qReport *boundedQ

	e2e *obs.Histogram
}

// run starts the feeder and the worker pool and reorders on its own
// goroutine. Each closes its downstream queue once its upstream is
// drained, so a closed input cascades into a flushed, closed output.
func (s *scheduler) run() {
	go s.feed()
	go s.pool(max(1, s.p.Parallelism))
	s.report()
}

// feed turns the input channel into sequenced pooled jobs.
func (s *scheduler) feed() {
	defer close(s.qIn.ch)
	var seq uint64
	for {
		select {
		case <-s.ctx.Done():
			return
		case frame, ok := <-s.in:
			if !ok {
				return
			}
			j := acquireJob()
			j.seq = seq
			j.frame = frame
			j.enqueued = time.Now()
			seq++
			if !s.qIn.send(s.ctx, j) {
				releaseJob(j)
				return
			}
		}
	}
}

// pool runs the workers: each takes a job off the input queue, counts it
// single-threaded (streaming parallelism is across frames, so results
// stay deterministic at any width), and hands it to the reorderer; the
// last worker out closes the report queue. A send refused by cancelation
// releases the job — the frame is dropped, which is the documented cancel
// semantics.
func (s *scheduler) pool(workers int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j, ok := s.qIn.recv()
				if !ok {
					return
				}
				// Waiting for a worker, blocked handoff into a full queue
				// included, is the wait the histogram is meant to surface.
				wait := time.Since(j.enqueued)
				s.p.m.queueWait.ObserveDuration(wait)
				s.p.countJob(j, 1)
				j.res.Timing.QueueWait = wait
				if !s.qReport.send(s.ctx, j) {
					releaseJob(j)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(s.qReport.ch)
}

// report reorders completed jobs into input order and emits them. The
// reorder buffer holds only frames that overtook the one still in a
// worker, so it is bounded by the frames in flight. On cancelation
// remaining results are dropped and their jobs released.
func (s *scheduler) report() {
	defer close(s.out)
	pending := make(map[uint64]*streamJob)
	next := uint64(0)
	emitting := true
	for {
		j, ok := s.qReport.recv()
		if !ok {
			break
		}
		pending[j.seq] = j
		for {
			jj, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if emitting {
				emitting = s.emit(jj)
			} else {
				releaseJob(jj)
			}
		}
	}
	for _, j := range pending {
		releaseJob(j)
	}
}

// emit releases the job and delivers its result; it returns false once
// the context is canceled.
func (s *scheduler) emit(j *streamJob) bool {
	r := StreamResult{Seq: j.seq, E2E: time.Since(j.enqueued), Result: j.res}
	releaseJob(j)
	s.e2e.ObserveDuration(r.E2E)
	select {
	case s.out <- r:
		return true
	case <-s.ctx.Done():
		return false
	}
}
