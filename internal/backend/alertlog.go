package backend

import (
	"sync"

	"hawccc/internal/wire"
)

// DefaultAlertLogCap is the alert log's retained-entry capacity.
const DefaultAlertLogCap = 1024

// alertLog is a fixed-capacity ring buffer over the most recent alerts.
// The PR 6 backend kept every alert ever raised in a growing slice; a
// campus backend is a long-lived process, so a misconfigured crowding
// limit could grow that log without bound. The ring keeps memory flat:
// once full, each append evicts the oldest entry. A lifetime counter is
// kept alongside so the query API can still report how many alerts were
// raised in total, evicted or not.
type alertLog struct {
	mu    sync.Mutex
	buf   []wire.Alert
	head  int // index of the oldest retained entry
	n     int // retained entries, ≤ cap(buf)
	total int // lifetime alerts raised (monotonic)
}

// init sizes the ring; capacity < 1 selects DefaultAlertLogCap.
func (l *alertLog) init(capacity int) {
	if capacity < 1 {
		capacity = DefaultAlertLogCap
	}
	l.buf = make([]wire.Alert, capacity)
}

// add appends an alert, evicting the oldest entry once the ring is full.
func (l *alertLog) add(a wire.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = a
		l.n++
		return
	}
	l.buf[l.head] = a
	l.head = (l.head + 1) % len(l.buf)
}

// recent returns the newest limit retained alerts in raise order
// (oldest of them first) as a fresh slice, plus the lifetime total.
// limit < 0 returns every retained alert.
func (l *alertLog) recent(limit int) (total int, out []wire.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if limit >= 0 && limit < n {
		n = limit
	}
	out = make([]wire.Alert, n)
	for i := 0; i < n; i++ {
		// The n newest entries start n slots before the ring's end.
		out[i] = l.buf[(l.head+l.n-n+i)%len(l.buf)]
	}
	return l.total, out
}
