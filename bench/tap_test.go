package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// msgOther is a message type the tap relays without looking inside.
const msgOther = 3

// randomFrames builds n frames of mixed types and sizes, and the exact
// bytes they make on the wire.
func randomFrames(t *testing.T, rng *rand.Rand, n int, types []byte) ([][2][]byte, []byte) {
	t.Helper()
	var stream bytes.Buffer
	frames := make([][2][]byte, n)
	for i := range frames {
		body := make([]byte, rng.Intn(3000))
		rng.Read(body)
		mt := types[rng.Intn(len(types))]
		if mt == msgReport || mt == msgAck {
			// The tap decodes these; give it real ones.
			body = encodeReport(uint32(1+rng.Intn(5)), uint64(i+1), time.Unix(0, rng.Int63()), uint32(rng.Intn(40)))
		}
		frames[i] = [2][]byte{{mt}, body}
		if err := writeFrame(&stream, mt, body); err != nil {
			t.Fatal(err)
		}
	}
	return frames, stream.Bytes()
}

// The tap must forward every byte unmodified and in order, in both
// directions at once.
func TestTapForwardsUnmodifiedBothWays(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	rng := rand.New(rand.NewSource(1))
	up, upBytes := randomFrames(t, rng, 400, []byte{msgHello, msgReport, msgOther})
	down, downBytes := randomFrames(t, rng, 400, []byte{msgAlert, msgOther})

	var reports int
	var mu sync.Mutex
	tp, err := startTap(backend.Addr().String(), clock{base: time.Now()}, &failures{},
		func([]byte, int64) { mu.Lock(); reports++; mu.Unlock() }, func(uint32, uint64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	var wg sync.WaitGroup
	var gotUp, gotDown []byte
	var upErr, downErr error
	wg.Add(1)
	go func() { // the backend: reads everything the pole sent while sending its own
		defer wg.Done()
		conn, err := backend.Accept()
		if err != nil {
			upErr = err
			return
		}
		defer conn.Close()
		var send sync.WaitGroup
		send.Add(1)
		go func() {
			defer send.Done()
			for _, f := range down {
				if err := writeFrame(conn, f[0][0], f[1]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		gotUp = make([]byte, len(upBytes))
		_, upErr = io.ReadFull(conn, gotUp)
		send.Wait()
	}()

	pole, err := net.Dial("tcp", tp.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pole.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotDown = make([]byte, len(downBytes))
		_, downErr = io.ReadFull(pole, gotDown)
	}()
	for _, f := range up {
		if err := writeFrame(pole, f[0][0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if upErr != nil || downErr != nil {
		t.Fatalf("read: up %v, down %v", upErr, downErr)
	}
	if !bytes.Equal(gotUp, upBytes) {
		t.Error("pole-to-backend bytes were changed or reordered")
	}
	if !bytes.Equal(gotDown, downBytes) {
		t.Error("backend-to-pole bytes were changed or reordered")
	}
	want := 0
	for _, f := range up {
		if f[0][0] == msgReport {
			want++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if reports != want {
		t.Errorf("tap saw %d reports, %d were sent", reports, want)
	}
}
