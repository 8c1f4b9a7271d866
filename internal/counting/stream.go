// stream.go implements the streaming scheduler: the continuous
// counterpart of Count for a pole that ingests LiDAR sweeps nonstop.
// Pipeline.Parallelism workers each take their next frame straight off
// the input channel and carry it from ROI crop to count with the very
// function Count runs (countJob), so per-frame outputs are bit-identical
// to Count's; a reorderer emits the results in input order.
package counting

import (
	"context"
	"sync"
	"time"

	"hawccc/internal/geom"
	"hawccc/internal/obs"
)

// StreamConfig has no fields: the scheduler has nothing to size, and its
// width is Pipeline.Parallelism. The type and the forwarder below survive
// only because bench/binding.go binds both names and no file under bench/
// may change outside a benchmark issue; they leave with the next one, as
// tsdb.DefaultSampleInterval does.
type StreamConfig struct{}

// StreamWith is Stream; see StreamConfig for why the name is still here.
func (p *Pipeline) StreamWith(ctx context.Context, frames <-chan geom.Cloud, _ StreamConfig) <-chan StreamResult {
	return p.Stream(ctx, frames)
}

// StreamResult is one counted frame from the streaming scheduler.
type StreamResult struct {
	// Seq is the frame's 0-based position on the input channel; results
	// are delivered in Seq order.
	Seq uint64
	// E2E is the end-to-end latency of this frame through the scheduler:
	// from taking the frame off the input to emitting its result (Timing
	// covers only the compute segments).
	E2E time.Duration
	Result
}

// Stream runs the scheduler over frames until the input channel closes
// (results for every accepted frame are flushed, then the returned
// channel closes) or ctx is canceled (in-flight frames are dropped and
// the channel closes). Results arrive in input order. Nothing queues
// ahead of the workers: a worker holds one frame and may leave one
// finished frame waiting for the reorderer, and past that the workers
// stop taking frames — a sender blocked on frames is waiting for a free
// worker, and a slow consumer backpressures capture instead of aging
// frames in a backlog.
//
// A pipeline without a classifier degrades as Count does: every frame
// comes back, in order, with zero counts.
func (p *Pipeline) Stream(ctx context.Context, frames <-chan geom.Cloud) <-chan StreamResult {
	workers := max(1, p.Parallelism)
	s := &scheduler{
		p:   p,
		ctx: ctx,
		in:  frames,
		out: make(chan StreamResult),
		// One slot per worker, so a worker whose frame is counted starts
		// its next one while the reorderer is blocked on the consumer.
		done: make(chan *streamJob, workers),
		e2e: p.reg.Histogram("hawc_stream_e2e_seconds",
			"end-to-end frame latency through the streaming scheduler (compute + reordering)",
			obs.LatencyBuckets()),
	}
	go s.run(workers)
	return s.out
}

// scheduler is the state of one Stream call.
type scheduler struct {
	p    *Pipeline
	ctx  context.Context
	in   <-chan geom.Cloud
	out  chan StreamResult
	done chan *streamJob
	e2e  *obs.Histogram

	// mu makes taking a frame off the input and numbering it one step, so
	// seq is the frame's position on the input at any width.
	mu  sync.Mutex
	seq uint64
}

// run reorders on its own goroutine, runs the workers, and closes done
// once the last of them has returned, so a closed input cascades into a
// flushed, closed output.
func (s *scheduler) run(workers int) {
	go s.report()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
	close(s.done)
}

// take receives the next frame into a sequenced pooled job; nil means the
// input closed or ctx was canceled. The mutex is held across the receive
// on purpose: the workers behind it are waiting for that same frame.
func (s *scheduler) take() *streamJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.ctx.Done():
		return nil
	case frame, ok := <-s.in:
		if !ok {
			return nil
		}
		j := acquireJob()
		j.seq = s.seq
		j.frame = frame
		j.taken = time.Now()
		s.seq++
		return j
	}
}

// work is one worker: it takes a frame, counts it on this goroutine
// (parallelism is across frames, so results stay deterministic at any
// width), and hands it to the reorderer. A handoff refused by
// cancelation drops the frame, the documented cancel semantics.
func (s *scheduler) work() {
	for j := s.take(); j != nil; j = s.take() {
		s.p.countJob(j)
		select {
		case s.done <- j:
		case <-s.ctx.Done():
			releaseJob(j)
			return
		}
	}
}

// report reorders completed jobs into input order and emits them. The
// reorder buffer exists so that no worker idles waiting for its turn; it
// holds only frames that overtook the one still in a worker, so it is
// bounded by the frames in flight. On cancelation remaining results are
// dropped and their jobs released.
func (s *scheduler) report() {
	defer close(s.out)
	pending := make(map[uint64]*streamJob)
	next := uint64(0)
	emitting := true
	for j := range s.done {
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
	r := StreamResult{Seq: j.seq, E2E: time.Since(j.taken), Result: j.res}
	releaseJob(j)
	s.e2e.ObserveDuration(r.E2E)
	select {
	case s.out <- r:
		return true
	case <-s.ctx.Done():
		return false
	}
}
