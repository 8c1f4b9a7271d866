package backend

import (
	"net"
	"sync"
	"testing"
	"time"

	"hawccc/internal/wire"
)

// noHist is the history factory for registry-level tests: nil handles,
// no-op capture.
func noHist(uint32) *poleHist { return nil }

// findShardMates scans pole IDs from 2 upward for one that shares pole 1's
// shard and one that does not, so tests can pin both collision behaviors
// regardless of the hash constants.
func findShardMates(t *testing.T, r *registry) (same, other uint32) {
	t.Helper()
	want := r.shardIndex(1)
	for id := uint32(2); id < 1<<16; id++ {
		switch {
		case same == 0 && r.shardIndex(id) == want:
			same = id
		case other == 0 && r.shardIndex(id) != want:
			other = id
		}
		if same != 0 && other != 0 {
			return same, other
		}
	}
	t.Fatal("no shard collision found in 65k IDs")
	return 0, 0
}

func TestShardIndexSpreadsSequentialIDs(t *testing.T) {
	r := newRegistry()
	if len(r.shards) != DefaultShards {
		t.Fatalf("default registry has %d shards, want %d", len(r.shards), DefaultShards)
	}
	// Sequential IDs are the common deployment numbering; the finalizer
	// must spread them instead of marching through shards in lockstep.
	hits := make([]int, len(r.shards))
	const n = 10000
	for id := uint32(1); id <= n; id++ {
		hits[r.shardIndex(id)]++
	}
	// Perfectly uniform would be n/shards; any empty shard or a shard with
	// 4x its fair share means the mix is broken.
	fair := n / len(r.shards)
	for i, h := range hits {
		if h == 0 {
			t.Errorf("shard %d got no poles out of %d sequential IDs", i, n)
		}
		if h > 4*fair {
			t.Errorf("shard %d got %d of %d poles (fair share %d)", i, h, n, fair)
		}
	}
}

// TestConcurrentReportsSameAndCrossShard hammers three poles — two pinned
// to the same shard, one on a different shard — from concurrent
// goroutines and checks that per-pole aggregates are exact: no lost
// updates under same-shard lock contention, no cross-shard interference.
func TestConcurrentReportsSameAndCrossShard(t *testing.T) {
	r := newRegistry()
	mate, stranger := findShardMates(t, r)
	ids := []uint32{1, mate, stranger}

	const (
		workersPerPole = 4
		reportsEach    = 500
	)
	var wg sync.WaitGroup
	for _, id := range ids {
		for w := 0; w < workersPerPole; w++ {
			wg.Add(1)
			go func(id uint32) {
				defer wg.Done()
				for i := 0; i < reportsEach; i++ {
					r.withPole(id, noHist, func(p *PoleStats) {
						p.Reports++
						p.LastCount = 3
						p.TotalCount += 3
					})
				}
			}(id)
		}
	}
	wg.Wait()

	registered := 0
	for i := range r.shards {
		registered += len(r.shards[i].poles)
	}
	if got := registered; got != len(ids) {
		t.Fatalf("registry has %d poles, want %d", got, len(ids))
	}
	// Every pole was written 2,000 times and is collected once; nothing
	// is left for a second collect.
	poles := r.collect(nil)
	if len(poles) != len(ids) {
		t.Fatalf("collect returned %d rows for %d written poles", len(poles), len(ids))
	}
	if again := r.collect(nil); len(again) != 0 {
		t.Errorf("second collect with no write between returned %d rows, want 0", len(again))
	}
	want := workersPerPole * reportsEach
	for _, p := range poles {
		if p.Reports != want {
			t.Errorf("pole %d: %d reports, want %d (lost updates)", p.PoleID, p.Reports, want)
		}
		if p.TotalCount != int64(3*want) {
			t.Errorf("pole %d: total %d, want %d", p.PoleID, p.TotalCount, 3*want)
		}
	}
}

// TestReconnectLandsOnLiveShard drops a pole's connection mid-stream and
// reconnects: the second hello must land on the pole's existing shard
// entry (aggregates keep accumulating, no duplicate pole) while updating
// the mutable identity fields.
func TestReconnectLandsOnLiveShard(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	send := func(c *wire.Conn, count uint32, seq uint64) {
		t.Helper()
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(wire.CountReport{
			PoleID: 7, Seq: seq, Timestamp: time.Now(), Count: count,
		})); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
			t.Fatalf("ack: type %d err %v", typ, err)
		}
	}

	nc1, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c1 := wire.NewConn(nc1)
	if err := c1.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 7, Location: "old-walkway", Zone: "east"})); err != nil {
		t.Fatal(err)
	}
	send(c1, 4, 1)
	nc1.Close()

	// Reconnect as the same pole from a new connection — the deployment
	// case is a pole rebooting or the campus network flapping.
	c2 := dialBackend(t, s)
	if err := c2.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 7, Location: "new-walkway", Zone: "west"})); err != nil {
		t.Fatal(err)
	}
	send(c2, 6, 2)

	snap := s.RebuildSnapshot()
	if snap.Campus.Poles != 1 {
		t.Fatalf("campus has %d poles after reconnect, want 1", snap.Campus.Poles)
	}
	p, ok := snap.Pole(7)
	if !ok {
		t.Fatal("pole 7 missing from snapshot")
	}
	if p.Reports != 2 || p.TotalCount != 10 || p.PeakCount != 6 {
		t.Errorf("aggregates did not survive reconnect: %+v", p)
	}
	if p.Location != "new-walkway" || p.Zone != "west" {
		t.Errorf("identity not updated by second hello: %+v", p)
	}
	if z, ok := snapZone(snap, "west"); !ok || z.Poles != 1 {
		t.Errorf("zone rollup after reconnect: %+v ok=%v", z, ok)
	}
	if _, ok := snapZone(snap, "east"); ok {
		t.Error("stale zone still present after reconnect")
	}
}

// TestNoTornCampusTotals rebuilds snapshots concurrently with report
// ingest and checks every snapshot is internally consistent: campus and
// zone rollups must equal the sum of the snapshot's own pole rows, even
// though the underlying shards are being written the whole time.
func TestNoTornCampusTotals(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		poles   = 40
		reports = 200
	)
	for id := uint32(1); id <= poles; id++ {
		s.withPole(id, func(p *PoleStats) {
			p.Zone = map[uint32]string{0: "north", 1: "south"}[id%2]
		})
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for id := uint32(1); id <= poles; id++ {
		writers.Add(1)
		go func(id uint32) {
			defer writers.Done()
			for i := 0; i < reports; i++ {
				s.recordCount(wire.CountReport{PoleID: id, Seq: uint64(i + 1), Count: uint32(1 + i%5)})
			}
		}(id)
	}

	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.RebuildSnapshot()
			checkSnapshotConsistent(t, snap)
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()

	// After the dust settles the totals are fully determined.
	final := s.RebuildSnapshot()
	checkSnapshotConsistent(t, final)
	if final.Campus.Poles != poles {
		t.Errorf("final campus poles %d, want %d", final.Campus.Poles, poles)
	}
	if want := int64(poles * reports); final.Campus.Reports != want {
		t.Errorf("final campus reports %d, want %d (dropped or double-counted)", final.Campus.Reports, want)
	}
}

// checkSnapshotConsistent asserts rollups equal the sum of their parts
// within one snapshot — the "no torn totals" contract.
func checkSnapshotConsistent(t *testing.T, snap *Snapshot) {
	t.Helper()
	var count int
	var reports, total int64
	for _, p := range snap.Poles {
		count += p.LastCount
		reports += int64(p.Reports)
		total += p.TotalCount
	}
	if snap.Campus.Count != count || snap.Campus.Reports != reports || snap.Campus.TotalCount != total {
		t.Fatalf("torn campus totals in snapshot %d: campus %+v, pole sums count=%d reports=%d total=%d",
			snap.Seq, snap.Campus, count, reports, total)
	}
	var zCount int
	var zReports int64
	for _, z := range snap.Zones {
		zCount += z.Count
		zReports += z.Reports
	}
	if len(snap.Zones) > 0 && (zCount != count || zReports != reports) {
		t.Fatalf("torn zone totals in snapshot %d: zone sums count=%d reports=%d, pole sums count=%d reports=%d",
			snap.Seq, zCount, zReports, count, reports)
	}
}

// snapZone returns one zone's rollup from the snapshot.
func snapZone(s *Snapshot, name string) (ZoneStats, bool) {
	i, ok := s.byZone[name]
	if !ok {
		return ZoneStats{}, false
	}
	return s.Zones[i], true
}
