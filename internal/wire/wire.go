// Package wire defines the framing and message codecs of the private
// campus network (Figure 1): smart blue light poles stream crowd counts
// and compartment telemetry to the campus cloud backend over TCP. Frames
// are length-prefixed; message bodies use a compact fixed-layout binary
// encoding (stdlib only, no reflection in the hot path).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"hawccc/internal/obs"
)

// MaxFrameSize bounds a frame body; larger frames indicate corruption.
const MaxFrameSize = 1 << 20

// MsgType tags frame bodies.
type MsgType uint8

// Message types.
const (
	// MsgHello announces a pole after connecting.
	MsgHello MsgType = 1
	// MsgCountReport carries one counted LiDAR frame's result.
	MsgCountReport MsgType = 2
	// MsgTelemetry carries a compartment temperature reading.
	MsgTelemetry MsgType = 3
	// MsgAck acknowledges a report (backend → pole).
	MsgAck MsgType = 4
	// MsgAlert notifies poles of a backend-detected condition.
	MsgAlert MsgType = 5
	// 6 and 7 are retired (a cluster batch and its classify result, when
	// a pole could ship clusters to the backend) and are never reused: a
	// backend answers either with a dropped connection.
)

// Hello announces a pole to the backend.
type Hello struct {
	PoleID   uint32
	Location string // human-readable walkway name
	Zone     string // campus zone the pole belongs to (e.g. "north"); may be empty
	// ModelVersion fingerprints the classifier weights the pole counts
	// with (models.HAWC.ModelVersion). Zero means unversioned. Inventory
	// only: the backend records it per pole and compares it with nothing.
	ModelVersion uint32
}

// CountReport is one crowd-count measurement.
type CountReport struct {
	PoleID    uint32
	Seq       uint64
	Timestamp time.Time
	Count     uint32
	Clusters  uint32
	LatencyUS uint32 // end-to-end processing latency in microseconds
}

// Telemetry is one compartment temperature reading.
type Telemetry struct {
	PoleID    uint32
	Timestamp time.Time
	PoleTemp  float64
	Ambient   float64
}

// Ack acknowledges a report sequence number.
type Ack struct {
	Seq uint64
}

// Alert is a backend notification (e.g. unusual crowding).
type Alert struct {
	PoleID  uint32
	Kind    uint8
	Message string
}

// Alert kinds.
const (
	// AlertCrowding fires when a pole's count exceeds its density limit.
	AlertCrowding = 1
	// AlertOverheat fires when compartment temperature exceeds the rated
	// device limit.
	AlertOverheat = 2
)

// WriteFrame writes one framed message: u32 length, u8 type, body.
func WriteFrame(w io.Writer, t MsgType, body []byte) error {
	if len(body)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: write body: %w", err)
	}
	return nil
}

// ReadFrame reads one framed message.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // io.EOF passes through for clean shutdown
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: bad frame size %d", size)
	}
	body := make([]byte, size-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: read body: %w", err)
	}
	return MsgType(hdr[4]), body, nil
}

// encoder accumulates a fixed-layout body.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) time(t time.Time) { e.u64(uint64(t.UnixNano())) }

// decoder consumes a fixed-layout body.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || uint32(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) time() time.Time {
	ns := d.u64()
	return time.Unix(0, int64(ns)).UTC()
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated message")
	}
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}

// EncodeHello serializes h.
func EncodeHello(h Hello) []byte {
	var e encoder
	e.u32(h.PoleID)
	e.str(h.Location)
	e.str(h.Zone)
	e.u32(h.ModelVersion)
	return e.buf
}

// DecodeHello parses a Hello body.
func DecodeHello(b []byte) (Hello, error) {
	d := decoder{buf: b}
	h := Hello{PoleID: d.u32(), Location: d.str(), Zone: d.str(), ModelVersion: d.u32()}
	return h, d.finish()
}

// EncodeCountReport serializes r.
func EncodeCountReport(r CountReport) []byte {
	var e encoder
	e.u32(r.PoleID)
	e.u64(r.Seq)
	e.time(r.Timestamp)
	e.u32(r.Count)
	e.u32(r.Clusters)
	e.u32(r.LatencyUS)
	return e.buf
}

// DecodeCountReport parses a CountReport body.
func DecodeCountReport(b []byte) (CountReport, error) {
	d := decoder{buf: b}
	r := CountReport{
		PoleID:    d.u32(),
		Seq:       d.u64(),
		Timestamp: d.time(),
		Count:     d.u32(),
		Clusters:  d.u32(),
		LatencyUS: d.u32(),
	}
	return r, d.finish()
}

// EncodeTelemetry serializes t.
func EncodeTelemetry(t Telemetry) []byte {
	var e encoder
	e.u32(t.PoleID)
	e.time(t.Timestamp)
	e.f64(t.PoleTemp)
	e.f64(t.Ambient)
	return e.buf
}

// DecodeTelemetry parses a Telemetry body.
func DecodeTelemetry(b []byte) (Telemetry, error) {
	d := decoder{buf: b}
	t := Telemetry{
		PoleID:    d.u32(),
		Timestamp: d.time(),
		PoleTemp:  d.f64(),
		Ambient:   d.f64(),
	}
	return t, d.finish()
}

// EncodeAck serializes a.
func EncodeAck(a Ack) []byte {
	var e encoder
	e.u64(a.Seq)
	return e.buf
}

// DecodeAck parses an Ack body.
func DecodeAck(b []byte) (Ack, error) {
	d := decoder{buf: b}
	a := Ack{Seq: d.u64()}
	return a, d.finish()
}

// EncodeAlert serializes a.
func EncodeAlert(a Alert) []byte {
	var e encoder
	e.u32(a.PoleID)
	e.u8(a.Kind)
	e.str(a.Message)
	return e.buf
}

// DecodeAlert parses an Alert body.
func DecodeAlert(b []byte) (Alert, error) {
	d := decoder{buf: b}
	a := Alert{PoleID: d.u32(), Kind: d.u8(), Message: d.str()}
	return a, d.finish()
}

// Conn wraps a stream with buffered framed I/O. Not safe for concurrent
// writers; guard with a mutex if multiple goroutines send.
//
// Every Conn counts the framed bytes and messages it moves. The counters
// are detached obs instruments by default — readable through
// BytesSent/BytesReceived — and Instrument swaps in registry-backed ones
// so a process's connections aggregate onto its /metrics endpoint.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer

	bytesOut, bytesIn *obs.Counter
	msgsOut, msgsIn   *obs.Counter
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		r:        bufio.NewReader(rw),
		w:        bufio.NewWriter(rw),
		bytesOut: &obs.Counter{},
		bytesIn:  &obs.Counter{},
		msgsOut:  &obs.Counter{},
		msgsIn:   &obs.Counter{},
	}
}

// Instrument replaces the connection's traffic counters, typically with
// registry-backed ones shared across connections. Any nil argument keeps
// the existing counter. Call before the connection carries traffic;
// counts recorded on the previous counters are not migrated.
func (c *Conn) Instrument(bytesSent, bytesReceived, msgsSent, msgsReceived *obs.Counter) {
	if bytesSent != nil {
		c.bytesOut = bytesSent
	}
	if bytesReceived != nil {
		c.bytesIn = bytesReceived
	}
	if msgsSent != nil {
		c.msgsOut = msgsSent
	}
	if msgsReceived != nil {
		c.msgsIn = msgsReceived
	}
}

// BytesSent returns the framed bytes written so far (header + body).
func (c *Conn) BytesSent() uint64 { return c.bytesOut.Value() }

// BytesReceived returns the framed bytes read so far (header + body).
func (c *Conn) BytesReceived() uint64 { return c.bytesIn.Value() }

// frameBytes is the on-wire size of a frame with the given body: the
// 4-byte length prefix, 1-byte type tag, and the body itself.
func frameBytes(body []byte) uint64 { return uint64(5 + len(body)) }

// Send writes one frame and flushes.
func (c *Conn) Send(t MsgType, body []byte) error {
	if err := WriteFrame(c.w, t, body); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	c.bytesOut.Add(frameBytes(body))
	c.msgsOut.Inc()
	return nil
}

// Recv reads one frame.
func (c *Conn) Recv() (MsgType, []byte, error) {
	t, body, err := ReadFrame(c.r)
	if err == nil {
		c.bytesIn.Add(frameBytes(body))
		c.msgsIn.Inc()
	}
	return t, body, err
}
