// Package pole implements the smart blue light pole node (Figures 1–2):
// a capture loop that scans the walkway with the LiDAR simulator, runs the
// HAWC-CC counting pipeline on the edge, and streams count reports and
// compartment telemetry to the campus backend over the private network —
// raw point clouds never leave the pole, which is the privacy property the
// system is built around.
//
// Delivery is at-least-once: a report is resent after a reconnect if its
// ack never arrived, so a connection cut between backend receipt and ack
// can double-count one report, but no report is ever silently dropped.
package pole

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/obs"
	"hawccc/internal/telemetry"
	"hawccc/internal/wire"
)

// FrameSource yields raw LiDAR frames; the production implementation
// wraps the sensor, tests and demos wrap dataset generators.
type FrameSource interface {
	// NextFrame returns the next captured frame. It returns io.EOF when
	// the source is exhausted.
	NextFrame() (dataset.Frame, error)
}

// SliceSource replays a fixed set of frames.
type SliceSource struct {
	Frames []dataset.Frame
	next   int
}

var _ FrameSource = (*SliceSource)(nil)

// NextFrame implements FrameSource.
func (s *SliceSource) NextFrame() (dataset.Frame, error) {
	if s.next >= len(s.Frames) {
		return dataset.Frame{}, io.EOF
	}
	f := s.Frames[s.next]
	s.next++
	return f, nil
}

// DefaultReconnectWait is the pause before re-dialing a broken backend
// connection.
const DefaultReconnectWait = 100 * time.Millisecond

// DefaultAlertCap is how many received alerts a node retains (the
// backend's DefaultAlertLogCap): the backend sends one crowding alert per
// over-limit report, so a pole on a busy walkway would otherwise grow its
// alert list from network input for as long as it lives.
const DefaultAlertCap = 1024

// Config parameterizes a pole node.
type Config struct {
	// PoleID identifies this pole on the campus network.
	PoleID uint32
	// Location is the human-readable walkway name.
	Location string
	// Zone is the campus zone this pole belongs to; the backend rolls
	// zone aggregates up for the query API. May be empty.
	Zone string
	// BackendAddr is the campus backend's TCP address.
	BackendAddr string
	// Pipeline is the counting framework run on each frame.
	Pipeline *counting.Pipeline
	// Source yields frames to process.
	Source FrameSource
	// FrameInterval paces the capture loop (0 = process as fast as
	// possible, used by tests and batch replays).
	FrameInterval time.Duration
	// Telemetry, when non-nil, is streamed alongside count reports (one
	// reading per frame).
	Telemetry []telemetry.Reading
	// ModelVersion fingerprints the classifier weights Pipeline runs
	// (models.HAWC.ModelVersion); it is announced in every hello and the
	// backend lists it per pole as inventory. Zero means unversioned.
	ModelVersion uint32
	// MaxReconnects is how many times the node re-dials the backend when
	// a delivery fails, per report; after a successful ack the budget
	// resets. 0 keeps the historical fail-fast behavior.
	MaxReconnects int
	// Obs, when non-nil, registers the node's metrics (frames processed,
	// capture wait, acked reports, reconnects, alerts received, report RTT,
	// wire bytes) labeled pole="<id>". The node keeps private instruments
	// either way, so accessors like Reconnects work without a registry.
	Obs *obs.Registry
	// Logf, if non-nil, receives diagnostic output. Calls are serialized
	// by the node, so a shared sink never sees interleaved writes.
	Logf func(format string, args ...any)
}

// nodeObs is the node's instrument set.
type nodeObs struct {
	frames      *obs.Counter
	captureWait *obs.Histogram
	acked       *obs.Counter
	reconnects  *obs.Counter
	alerts      *obs.Counter
	rtt         *obs.Histogram
	bytesOut    *obs.Counter
	bytesIn     *obs.Counter
	msgsOut     *obs.Counter
	msgsIn      *obs.Counter
}

// Node is a running pole.
type Node struct {
	cfg Config
	m   nodeObs

	// connMu guards conn against the shutdown AfterFunc racing a
	// reconnect swap; wc is only touched by the Dial/Run goroutine.
	connMu  sync.Mutex
	conn    net.Conn
	stopped bool
	wc      *wire.Conn

	logMu sync.Mutex

	mu sync.Mutex
	// alerts is a ring over the newest DefaultAlertCap alerts: it grows by
	// append until full, then alertHead is the oldest entry and each new
	// alert overwrites it. The lifetime total is the alerts counter.
	alerts    []wire.Alert
	alertHead int
	acked     uint64
	sent      uint64
}

// Dial connects the pole to the backend and performs the hello handshake.
func Dial(cfg Config) (*Node, error) {
	if cfg.Pipeline == nil {
		return nil, errors.New("pole: config needs a pipeline")
	}
	if cfg.Source == nil {
		return nil, errors.New("pole: config needs a frame source")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{cfg: cfg}
	n.initObs()
	if err := n.connect(); err != nil {
		return nil, err
	}
	return n, nil
}

// initObs builds the instrument set: registry-backed when cfg.Obs is set,
// detached otherwise, so counters always count.
func (n *Node) initObs() {
	id := obs.L("pole", strconv.FormatUint(uint64(n.cfg.PoleID), 10))
	reg := n.cfg.Obs
	if reg == nil {
		n.m = nodeObs{
			frames: &obs.Counter{}, captureWait: obs.NewHistogram(obs.LatencyBuckets()),
			acked: &obs.Counter{}, reconnects: &obs.Counter{},
			alerts: &obs.Counter{}, rtt: obs.NewHistogram(obs.LatencyBuckets()),
			bytesOut: &obs.Counter{}, bytesIn: &obs.Counter{},
			msgsOut: &obs.Counter{}, msgsIn: &obs.Counter{},
		}
		return
	}
	n.m = nodeObs{
		frames:      reg.Counter("pole_frames_processed_total", "LiDAR frames captured and counted on the pole", id),
		captureWait: reg.Histogram("pole_capture_wait_seconds", "time a captured frame waited for a free counting worker", obs.LatencyBuckets(), id),
		acked:       reg.Counter("pole_reports_acked_total", "count reports acknowledged by the backend", id),
		reconnects:  reg.Counter("pole_reconnects_total", "times the pole re-dialed a broken backend connection", id),
		alerts:      reg.Counter("pole_alerts_received_total", "alerts delivered to this pole by the backend", id),
		rtt:         reg.Histogram("pole_report_rtt_seconds", "report send to backend ack round-trip time", obs.LatencyBuckets(), id),
		bytesOut:    reg.Counter("pole_wire_bytes_sent_total", "framed bytes sent to the backend", id),
		bytesIn:     reg.Counter("pole_wire_bytes_received_total", "framed bytes received from the backend", id),
		msgsOut:     reg.Counter("pole_wire_messages_sent_total", "framed messages sent to the backend", id),
		msgsIn:      reg.Counter("pole_wire_messages_received_total", "framed messages received from the backend", id),
	}
}

// connect dials the backend, instruments the connection, and performs the
// hello handshake. Called by Dial and by reconnect.
func (n *Node) connect() error {
	conn, err := net.Dial("tcp", n.cfg.BackendAddr)
	if err != nil {
		return fmt.Errorf("pole: dial backend: %w", err)
	}
	wc := wire.NewConn(conn)
	wc.Instrument(n.m.bytesOut, n.m.bytesIn, n.m.msgsOut, n.m.msgsIn)
	hello := wire.Hello{PoleID: n.cfg.PoleID, Location: n.cfg.Location, Zone: n.cfg.Zone, ModelVersion: n.cfg.ModelVersion}
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(hello)); err != nil {
		conn.Close()
		return fmt.Errorf("pole: hello: %w", err)
	}
	n.connMu.Lock()
	if n.stopped {
		n.connMu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	n.conn = conn
	n.connMu.Unlock()
	n.wc = wc
	return nil
}

// closeConn closes the current connection; with markStopped it also
// refuses any future connect (the shutdown path).
func (n *Node) closeConn(markStopped bool) {
	n.connMu.Lock()
	if markStopped {
		n.stopped = true
	}
	c := n.conn
	n.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// logf serializes diagnostic output across goroutines sharing a sink.
func (n *Node) logf(format string, args ...any) {
	n.logMu.Lock()
	defer n.logMu.Unlock()
	n.cfg.Logf(format, args...)
}

// Run processes frames until the source is exhausted or ctx is canceled,
// then closes the connection. It returns the number of frames processed.
//
// Run drives the counting pipeline's streaming scheduler: a
// capture goroutine paces the frame source into the stream while Run
// delivers finished results to the backend, so capture, counting, and
// report delivery of consecutive frames overlap instead of running
// lock-step. The scheduler's workers cap the frames in flight: a frame
// leaves the capture loop only when a worker is free to count it, so a
// backend outage backpressures capture rather than growing a backlog,
// and that wait — the only place a frame can wait for a worker — is what
// pole_capture_wait_seconds records. Delivery stays in frame order and
// at-least-once exactly as the lock-step loop was.
func (n *Node) Run(ctx context.Context) (int, error) {
	defer n.closeConn(true)
	// Cancel unblocks network I/O by closing the connection and pinning
	// stopped, so a racing reconnect cannot resurrect it.
	stop := context.AfterFunc(ctx, func() { n.closeConn(true) })
	defer stop()
	// A delivery failure must also stop the capture goroutine and the
	// scheduler behind it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Capture loop: pace the source into the stream. srcErr is written
	// before the channel close that ends the result stream, so reading it
	// after the results channel closes is race-free.
	frames := make(chan geom.Cloud)
	var srcErr error
	go func() {
		defer close(frames)
		for {
			if ctx.Err() != nil {
				return
			}
			frame, err := n.cfg.Source.NextFrame()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				srcErr = fmt.Errorf("pole: frame source: %w", err)
				return
			}
			captured := time.Now()
			select {
			case frames <- frame.Cloud:
				n.m.captureWait.ObserveDuration(time.Since(captured))
			case <-ctx.Done():
				return
			}
			if n.cfg.FrameInterval > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(n.cfg.FrameInterval):
				}
			}
		}
	}()

	processed := 0
	for result := range n.cfg.Pipeline.Stream(ctx, frames) {
		n.m.frames.Inc()

		n.mu.Lock()
		n.sent++
		seq := n.sent
		n.mu.Unlock()
		// Stamped when the frame was taken, not when its report is sent:
		// history keeps a count at the instant it describes.
		report := wire.CountReport{
			PoleID:    n.cfg.PoleID,
			Seq:       seq,
			Timestamp: time.Now().Add(-result.E2E).UTC(),
			Count:     uint32(result.Count),
			Clusters:  uint32(result.Clusters),
			LatencyUS: uint32(result.E2E.Microseconds()),
		}
		body := wire.EncodeCountReport(report)
		err := n.withRetry(ctx, func() error {
			t0 := time.Now()
			if err := n.wc.Send(wire.MsgCountReport, body); err != nil {
				return fmt.Errorf("pole: send report: %w", err)
			}
			if err := n.awaitAck(seq); err != nil {
				return err
			}
			n.m.rtt.ObserveDuration(time.Since(t0))
			n.m.acked.Inc()
			return nil
		})
		if err != nil {
			return processed, err
		}

		if processed < len(n.cfg.Telemetry) {
			r := n.cfg.Telemetry[processed]
			tm := wire.EncodeTelemetry(wire.Telemetry{
				PoleID:    n.cfg.PoleID,
				Timestamp: r.At,
				PoleTemp:  r.Pole,
				Ambient:   r.Weather,
			})
			err = n.withRetry(ctx, func() error {
				if err := n.wc.Send(wire.MsgTelemetry, tm); err != nil {
					return fmt.Errorf("pole: send telemetry: %w", err)
				}
				return nil
			})
			if err != nil {
				return processed, err
			}
		}

		processed++
	}
	if err := ctx.Err(); err != nil {
		return processed, err
	}
	return processed, srcErr
}

// withRetry runs op, re-dialing the backend between attempts when the
// configured reconnect budget allows. A failed re-dial burns an attempt
// too, so an unreachable backend exhausts the budget instead of looping.
func (n *Node) withRetry(ctx context.Context, op func() error) error {
	err := op()
	if err == nil {
		return nil
	}
	for attempt := 1; attempt <= n.cfg.MaxReconnects; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if rerr := n.reconnect(ctx); rerr != nil {
			err = rerr
			continue
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// reconnect replaces a broken connection: close, back off, re-dial, and
// redo the hello handshake.
func (n *Node) reconnect(ctx context.Context) error {
	n.closeConn(false)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(DefaultReconnectWait):
	}
	if err := n.connect(); err != nil {
		return fmt.Errorf("pole: reconnect: %w", err)
	}
	n.m.reconnects.Inc()
	n.logf("pole %d: reconnected to backend after broken connection", n.cfg.PoleID)
	return nil
}

// awaitAck reads frames until the ack for seq arrives, collecting any
// alerts delivered in between.
func (n *Node) awaitAck(seq uint64) error {
	for {
		t, body, err := n.wc.Recv()
		if err != nil {
			return fmt.Errorf("pole: awaiting ack: %w", err)
		}
		switch t {
		case wire.MsgAck:
			ack, err := wire.DecodeAck(body)
			if err != nil {
				return err
			}
			n.mu.Lock()
			n.acked = ack.Seq
			n.mu.Unlock()
			if ack.Seq == seq {
				return nil
			}
		case wire.MsgAlert:
			alert, err := wire.DecodeAlert(body)
			if err != nil {
				return err
			}
			n.mu.Lock()
			if len(n.alerts) < DefaultAlertCap {
				n.alerts = append(n.alerts, alert)
			} else {
				n.alerts[n.alertHead] = alert
				n.alertHead = (n.alertHead + 1) % DefaultAlertCap
			}
			n.mu.Unlock()
			n.m.alerts.Inc()
			n.logf("pole %d: received alert: %s", n.cfg.PoleID, alert.Message)
		default:
			return fmt.Errorf("pole: unexpected message type %d", t)
		}
	}
}

// Alerts returns the newest alerts this pole has received — at most
// DefaultAlertCap of them — oldest first. AlertsReceived is the total.
func (n *Node) Alerts() []wire.Alert {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]wire.Alert, 0, len(n.alerts))
	out = append(out, n.alerts[n.alertHead:]...)
	return append(out, n.alerts[:n.alertHead]...)
}

// Acked returns the highest acknowledged report sequence.
func (n *Node) Acked() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.acked
}

// Reconnects returns how many times the node re-dialed the backend.
func (n *Node) Reconnects() uint64 { return n.m.reconnects.Value() }

// AlertsReceived returns how many alerts the backend has delivered to
// this node, retained by Alerts or not.
func (n *Node) AlertsReceived() uint64 { return n.m.alerts.Value() }

// BytesSent returns the framed bytes this node has written to the
// backend across all connections.
func (n *Node) BytesSent() uint64 { return n.m.bytesOut.Value() }
