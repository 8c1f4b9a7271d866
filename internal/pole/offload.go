// offload.go is the pole side of the edge/cloud classify offload: an
// Offloader ships one frame's kept clusters to the backend's offload
// service as a quantized wire.ClusterBatch and blocks until the
// per-cluster labels come back. It runs over its own backend
// connection — the report connection is occupied by the synchronous
// report/ack exchange — and correlates replies by frame sequence
// number, so every stream worker can have a batch in flight at once
// instead of serializing round trips.
package pole

import (
	"fmt"
	"net"
	"sync"

	"hawccc/internal/counting"
	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// OffloaderConfig parameterizes a backend offload client.
type OffloaderConfig struct {
	// BackendAddr is the backend's TCP address (the same listener that
	// takes count reports; the hello handshake marks this connection).
	BackendAddr string
	// PoleID / Location / Zone identify the pole in the hello. PoleID is
	// also stamped onto every shipped batch so backend replies key on
	// (PoleID, Seq).
	PoleID         uint32
	Location, Zone string
	// ModelVersion fingerprints the classifier the pole runs locally; it
	// is announced in the hello and stamped onto every shipped batch so
	// the backend can refuse to classify with skewed weights (the pole
	// then falls back to its edge path). Zero means unversioned.
	ModelVersion uint32
	// BytesSent/BytesReceived/MsgsSent/MsgsReceived, when non-nil,
	// instrument the offload connection's traffic (the pole node passes
	// its pole_wire_* counters so offload bytes aggregate with report
	// bytes).
	BytesSent, BytesReceived, MsgsSent, MsgsReceived *obs.Counter
}

// offloadReply is one correlated answer: labels or a transport error.
type offloadReply struct {
	labels []bool
	err    error
}

// Offloader is a counting.RemoteClassifier that ships cluster batches
// to the backend over a dedicated connection. It dials lazily on first
// use and re-dials on the next call after a connection failure; a
// failed call surfaces its error to the scheduler, which classifies
// that frame locally (the fallback path), so transport trouble costs
// latency, never frames.
//
// Safe for concurrent callers: writes are serialized, and a reader
// goroutine dispatches replies to per-sequence waiters so calls overlap
// on the wire.
type Offloader struct {
	cfg OffloaderConfig

	// mu guards the connection lifecycle and the waiter map; sendMu
	// serializes frame writes on the current connection.
	mu      sync.Mutex
	conn    net.Conn
	wc      *wire.Conn
	waiters map[uint64]chan offloadReply
	closed  bool

	sendMu sync.Mutex
}

var _ counting.RemoteClassifier = (*Offloader)(nil)

// NewOffloader builds an offload client; the connection is dialed on
// first use.
func NewOffloader(cfg OffloaderConfig) *Offloader {
	return &Offloader{cfg: cfg, waiters: make(map[uint64]chan offloadReply)}
}

// ClassifyRemote implements counting.RemoteClassifier: stamp the
// pipeline's prebuilt quantized batch with this pole's identity, ship
// it, and block until the backend's labels for this frame arrive or the
// connection dies. The batch arrives already quantized — it is the
// exact lattice the pipeline's local classify stage snapped to — so
// nothing here may re-quantize it.
func (o *Offloader) ClassifyRemote(batch *wire.ClusterBatch) ([]bool, error) {
	batch.PoleID = o.cfg.PoleID
	batch.ModelVersion = o.cfg.ModelVersion
	seq := batch.Seq
	body := wire.EncodeClusterBatch(*batch)
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, net.ErrClosed
	}
	wc, err := o.ensureConnLocked()
	if err != nil {
		o.mu.Unlock()
		return nil, err
	}
	ch := make(chan offloadReply, 1)
	o.waiters[seq] = ch
	o.mu.Unlock()

	o.sendMu.Lock()
	err = wc.Send(wire.MsgClusterBatch, body)
	o.sendMu.Unlock()
	if err != nil {
		// dropConn fails every waiter registered on wc — including this
		// call's — so the receive below cannot hang.
		o.dropConn(wc, err)
	}
	r := <-ch
	return r.labels, r.err
}

// ensureConnLocked returns the live connection, dialing and performing
// the hello handshake if there is none. Caller holds o.mu.
func (o *Offloader) ensureConnLocked() (*wire.Conn, error) {
	if o.wc != nil {
		return o.wc, nil
	}
	conn, err := net.Dial("tcp", o.cfg.BackendAddr)
	if err != nil {
		return nil, fmt.Errorf("pole: dial offload: %w", err)
	}
	wc := wire.NewConn(conn)
	wc.Instrument(o.cfg.BytesSent, o.cfg.BytesReceived, o.cfg.MsgsSent, o.cfg.MsgsReceived)
	hello := wire.Hello{PoleID: o.cfg.PoleID, Location: o.cfg.Location, Zone: o.cfg.Zone, ModelVersion: o.cfg.ModelVersion}
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(hello)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("pole: offload hello: %w", err)
	}
	o.conn, o.wc = conn, wc
	go o.readLoop(wc)
	return wc, nil
}

// readLoop dispatches classify results to their waiters until the
// connection fails, then fails every outstanding waiter.
func (o *Offloader) readLoop(wc *wire.Conn) {
	for {
		t, body, err := wc.Recv()
		if err != nil {
			o.dropConn(wc, fmt.Errorf("pole: offload connection: %w", err))
			return
		}
		if t != wire.MsgClassifyResult {
			o.dropConn(wc, fmt.Errorf("pole: unexpected message type %d on offload connection", t))
			return
		}
		res, err := wire.DecodeClassifyResult(body)
		if err != nil {
			o.dropConn(wc, err)
			return
		}
		o.mu.Lock()
		ch, ok := o.waiters[res.Seq]
		delete(o.waiters, res.Seq)
		o.mu.Unlock()
		if ok {
			ch <- offloadReply{labels: res.Labels}
		}
	}
}

// dropConn retires wc if it is still current: the socket closes, every
// outstanding waiter gets err, and the next ClassifyRemote re-dials.
func (o *Offloader) dropConn(wc *wire.Conn, err error) {
	o.mu.Lock()
	if o.wc != wc {
		o.mu.Unlock()
		return
	}
	conn := o.conn
	o.conn, o.wc = nil, nil
	waiters := o.waiters
	o.waiters = make(map[uint64]chan offloadReply)
	o.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, ch := range waiters {
		ch <- offloadReply{err: err}
	}
}

// Close shuts the offloader down: the connection closes, outstanding
// calls fail, and future calls return net.ErrClosed.
func (o *Offloader) Close() {
	o.mu.Lock()
	o.closed = true
	wc := o.wc
	o.mu.Unlock()
	if wc != nil {
		o.dropConn(wc, net.ErrClosed)
	}
}
