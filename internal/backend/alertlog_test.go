package backend

import (
	"fmt"
	"testing"

	"hawccc/internal/wire"
)

func logAlert(i int) wire.Alert {
	return wire.Alert{PoleID: uint32(i), Kind: wire.AlertCrowding, Message: fmt.Sprintf("alert %d", i)}
}

func TestAlertLogEviction(t *testing.T) {
	var l alertLog
	l.init(4)

	for i := 0; i < 3; i++ {
		l.add(logAlert(i))
	}
	total, got := l.recent(-1)
	if total != 3 || len(got) != 3 {
		t.Fatalf("before wrap: total %d, retained %d; want 3, 3", total, len(got))
	}

	// Push past capacity: 0 and 1 must be evicted, raise order kept.
	for i := 3; i < 6; i++ {
		l.add(logAlert(i))
	}
	total, got = l.recent(-1)
	if total != 6 {
		t.Fatalf("lifetime total %d, want 6", total)
	}
	if len(got) != 4 {
		t.Fatalf("retained %d alerts, want capacity 4", len(got))
	}
	for i, a := range got {
		if want := uint32(i + 2); a.PoleID != want {
			t.Fatalf("retained[%d] = pole %d, want %d", i, a.PoleID, want)
		}
	}

	// recent(limit) returns the newest limit entries, oldest-first.
	total, got = l.recent(2)
	if total != 6 || len(got) != 2 || got[0].PoleID != 4 || got[1].PoleID != 5 {
		t.Fatalf("recent(2) = total %d, poles %v", total, got)
	}
	// A limit beyond retention returns only what the ring holds.
	if _, got = l.recent(100); len(got) != 4 {
		t.Fatalf("recent(100) retained %d, want 4", len(got))
	}
}

func TestAlertLogDefaultCap(t *testing.T) {
	var l alertLog
	l.init(0)
	if len(l.buf) != DefaultAlertLogCap {
		t.Fatalf("init(0) capacity %d, want DefaultAlertLogCap %d", len(l.buf), DefaultAlertLogCap)
	}
}
