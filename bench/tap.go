package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// tap is a loopback relay the benchmark owns between pole and backend.
// It moves frames unmodified and in order, one goroutine per direction,
// and tells the hooks when a count report leaves the pole (report_tx)
// and when its ack comes back (ack_rx).
type tap struct {
	ln      net.Listener
	backend string
	clk     clock
	fails   *failures

	// onReport sees every count report body before it is forwarded;
	// onAck every ack, with the pole the connection belongs to.
	onReport func(body []byte, at int64)
	onAck    func(pole uint32, seq uint64, at int64)

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
	down  atomic.Bool
}

func startTap(backend string, clk clock, f *failures, onReport func([]byte, int64), onAck func(uint32, uint64, int64)) (*tap, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tap{ln: ln, backend: backend, clk: clk, fails: f, onReport: onReport, onAck: onAck}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

func (t *tap) addr() string { return t.ln.Addr().String() }

func (t *tap) accept() {
	defer t.wg.Done()
	for {
		down, err := t.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", t.backend)
		if err != nil {
			t.fails.transport.Add(1)
			down.Close()
			continue
		}
		t.mu.Lock()
		t.conns = append(t.conns, down, up)
		t.mu.Unlock()
		var pole atomic.Uint32
		t.wg.Add(2)
		go t.pump(down, up, &pole, true)
		go t.pump(up, down, &pole, false)
	}
}

// pump relays frames from src to dst until either side closes, then
// closes both so the opposite pump ends too.
func (t *tap) pump(src, dst net.Conn, pole *atomic.Uint32, fromPole bool) {
	defer t.wg.Done()
	defer src.Close()
	defer dst.Close()
	in, out := newWireConn(src), newWireConn(dst)
	for {
		mt, body, err := wireRecv(in)
		if err != nil {
			return // EOF or the peer pump closed us
		}
		at := t.clk.now()
		switch {
		case fromPole && mt == msgReport:
			if r, err := decodeReport(body); err == nil {
				pole.Store(r.pole)
			}
			if t.onReport != nil {
				t.onReport(body, at)
			}
		case !fromPole && mt == msgAck && t.onAck != nil:
			if seq, err := decodeAck(body); err == nil {
				t.onAck(pole.Load(), seq, at)
			} else {
				t.fails.transport.Add(1)
			}
		}
		if err := wireSend(out, mt, body); err != nil {
			// A pole that has its last ack hangs up without reading a
			// trailing alert; only the pole-to-backend direction failing
			// loses anything.
			if fromPole && !t.down.Load() {
				t.fails.transport.Add(1)
			}
			return
		}
	}
}

// close stops accepting, closes every relayed connection and waits for
// the pumps.
func (t *tap) close() {
	t.down.Store(true)
	t.ln.Close()
	t.mu.Lock()
	for _, c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}
