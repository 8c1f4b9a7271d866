package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hawccc/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello world")
	if err := WriteFrame(&buf, MsgHello, body); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello || !bytes.Equal(got, body) {
		t.Errorf("round trip: type=%d body=%q", typ, got)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAck || len(body) != 0 {
		t.Errorf("empty frame: type=%d len=%d", typ, len(body))
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, MsgHello, make([]byte, MaxFrameSize)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Truncated header → io.EOF-ish error.
	if _, _, err := ReadFrame(strings.NewReader("\x00\x00")); err == nil {
		t.Error("truncated header accepted")
	}
	// Zero size.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 1})); err == nil {
		t.Error("zero-size frame accepted")
	}
	// Huge declared size.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})); err == nil {
		t.Error("huge frame accepted")
	}
	// Truncated body.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 5, 1, 'a'})); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

func TestHelloCodec(t *testing.T) {
	in := Hello{PoleID: 42, Location: "Palm Walk & University Dr", Zone: "north"}
	out, err := DecodeHello(EncodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
}

func TestCountReportCodec(t *testing.T) {
	ts := time.Date(2023, 7, 1, 12, 30, 0, 123456789, time.UTC)
	in := CountReport{
		PoleID: 7, Seq: 99, Timestamp: ts,
		Count: 14, Clusters: 20, LatencyUS: 17420,
	}
	out, err := DecodeCountReport(EncodeCountReport(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
}

func TestTelemetryCodec(t *testing.T) {
	ts := time.Date(2023, 6, 24, 16, 0, 0, 0, time.UTC)
	in := Telemetry{PoleID: 3, Timestamp: ts, PoleTemp: 57.81, Ambient: 46.2}
	out, err := DecodeTelemetry(EncodeTelemetry(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
}

func TestAckAlertCodecs(t *testing.T) {
	a, err := DecodeAck(EncodeAck(Ack{Seq: 123}))
	if err != nil || a.Seq != 123 {
		t.Errorf("ack round trip: %+v err=%v", a, err)
	}
	al, err := DecodeAlert(EncodeAlert(Alert{PoleID: 1, Kind: AlertCrowding, Message: "crowd"}))
	if err != nil || al.Kind != AlertCrowding || al.Message != "crowd" {
		t.Errorf("alert round trip: %+v err=%v", al, err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := EncodeCountReport(CountReport{PoleID: 1, Seq: 2})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeCountReport(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage rejected too.
	if _, err := DecodeAck(append(EncodeAck(Ack{Seq: 1}), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// String length beyond buffer.
	bad := EncodeHello(Hello{PoleID: 1, Location: "x"})
	bad[4] = 0xFF // corrupt the string length
	if _, err := DecodeHello(bad); err == nil {
		t.Error("corrupt string length accepted")
	}
}

func TestConnSendRecv(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(MsgTelemetry, EncodeTelemetry(Telemetry{PoleID: 9})); err != nil {
		t.Fatal(err)
	}
	typ, body, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgTelemetry {
		t.Errorf("type = %d", typ)
	}
	tm, err := DecodeTelemetry(body)
	if err != nil || tm.PoleID != 9 {
		t.Errorf("telemetry %+v err=%v", tm, err)
	}
}

func TestConnCountsBytesAndMessages(t *testing.T) {
	var buf bytes.Buffer
	sender := NewConn(&buf)
	body := EncodeHello(Hello{PoleID: 9, Location: "Palm Walk"})
	if err := sender.Send(MsgHello, body); err != nil {
		t.Fatal(err)
	}
	ack := EncodeAck(Ack{Seq: 3})
	if err := sender.Send(MsgAck, ack); err != nil {
		t.Fatal(err)
	}
	wantBytes := uint64(5+len(body)) + uint64(5+len(ack))
	if got := sender.BytesSent(); got != wantBytes {
		t.Errorf("BytesSent = %d, want %d", got, wantBytes)
	}
	if got := sender.BytesSent(); got != uint64(buf.Len()) {
		t.Errorf("BytesSent = %d but %d bytes actually on the wire", got, buf.Len())
	}

	receiver := NewConn(&buf)
	for i := 0; i < 2; i++ {
		if _, _, err := receiver.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if got := receiver.BytesReceived(); got != wantBytes {
		t.Errorf("BytesReceived = %d, want %d", got, wantBytes)
	}
	if sender.BytesReceived() != 0 || receiver.BytesSent() != 0 {
		t.Error("directions must be counted independently")
	}
}

func TestConnInstrumentSharesRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	sent := reg.Counter("wire_bytes_sent_total", "")
	recvd := reg.Counter("wire_bytes_received_total", "")
	msgs := reg.Counter("wire_messages_sent_total", "")

	var buf bytes.Buffer
	a := NewConn(&buf)
	b := NewConn(&buf)
	a.Instrument(sent, recvd, msgs, nil)
	b.Instrument(sent, recvd, msgs, nil)

	body := EncodeAck(Ack{Seq: 1})
	if err := a.Send(MsgAck, body); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(MsgAck, body); err != nil {
		t.Fatal(err)
	}
	if got := sent.Value(); got != 2*uint64(5+len(body)) {
		t.Errorf("shared byte counter = %d, want %d", got, 2*(5+len(body)))
	}
	if msgs.Value() != 2 {
		t.Errorf("shared message counter = %d, want 2", msgs.Value())
	}
	// A failed receive must not count.
	if _, _, err := NewConn(&bytes.Buffer{}).Recv(); err == nil {
		t.Fatal("expected EOF")
	}
	if recvd.Value() != 0 {
		t.Errorf("received counter = %d before any successful Recv", recvd.Value())
	}
}

// wireSeeds are a body of every message type, an empty body, a Hello
// whose location claims 4 GiB, and an Ack with a trailing byte.
func wireSeeds() [][]byte {
	hello := EncodeHello(Hello{PoleID: 7, Location: "Palm Walk", Zone: "north", ModelVersion: 3})
	huge := bytes.Clone(hello)
	binary.BigEndian.PutUint32(huge[4:], math.MaxUint32)
	return [][]byte{
		hello,
		EncodeCountReport(CountReport{PoleID: 7, Seq: 9, Timestamp: time.Unix(1700000000, 5), Count: 14, Clusters: 20, LatencyUS: 17420}),
		EncodeTelemetry(Telemetry{PoleID: 7, Timestamp: time.Unix(1700000000, 0), PoleTemp: 57.81, Ambient: math.NaN()}),
		EncodeAck(Ack{Seq: 9}),
		EncodeAlert(Alert{PoleID: 7, Kind: AlertOverheat, Message: "compartment at 58 C"}),
		{},
		huge,
		append(EncodeAck(Ack{Seq: 1}), 0),
	}
}

// FuzzReadFrame: no input makes ReadFrame panic or allocate more than
// one MaxFrameSize body, and a frame it reads re-encodes with WriteFrame
// to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for i, body := range wireSeeds() {
		var b bytes.Buffer
		if err := WriteFrame(&b, MsgType(i%5+1), body); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgHello)}) // a 4 GiB frame
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, body, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrameSize+1<<16 {
			t.Fatalf("ReadFrame allocated %d bytes on a %d-byte input", grew, len(data))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, body); err != nil {
			t.Fatalf("a frame ReadFrame accepted does not write: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("frame %x re-encodes to %x", consumed, out.Bytes())
		}
	})
}

// FuzzDecodeMessages: whatever a decoder accepts, its encoder writes back
// to the same bytes, so a body has one meaning and nothing in it is
// skipped.
func FuzzDecodeMessages(f *testing.F) {
	for _, body := range wireSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(msg string, enc []byte, err error) {
			if err == nil && !bytes.Equal(enc, b) {
				t.Errorf("%s decoded from %x re-encodes to %x", msg, b, enc)
			}
		}
		h, err := DecodeHello(b)
		check("Hello", EncodeHello(h), err)
		r, err := DecodeCountReport(b)
		check("CountReport", EncodeCountReport(r), err)
		tm, err := DecodeTelemetry(b)
		check("Telemetry", EncodeTelemetry(tm), err)
		a, err := DecodeAck(b)
		check("Ack", EncodeAck(a), err)
		al, err := DecodeAlert(b)
		check("Alert", EncodeAlert(al), err)
	})
}
