package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// allRows copies every pole's row out of the registry, written or not:
// what a from-scratch build is given. It leaves the dirty lists alone.
func allRows(r *registry) []PoleStats {
	var out []PoleStats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, e := range sh.poles {
			out = append(out, e.stats)
		}
		sh.mu.Unlock()
	}
	return out
}

// checkSnapshotAgainstEncoder checks a snapshot against what does not go
// through the patcher: the cached bodies and every zone's body against the
// encoder over the rows and rollups, every row's bytes in the listing
// against json.Marshal of the row, the indexes and the busiest rows
// against their definitions (the rollups against the rows is
// checkSnapshotConsistent). It reads everything successive snapshots
// share, and only reports with Error: readers call it.
func checkSnapshotAgainstEncoder(t *testing.T, snap *Snapshot) {
	t.Helper()
	m := meta(snap)
	for name, pair := range map[string][2][]byte{
		"campus": {snap.cache.campus.body, encodeBody(campusResponse{m, snap.Campus})},
		"poles":  {snap.cache.poles.body, encodeBody(polesResponse{m, snap.Poles})},
		"zones":  {snap.cache.zones.body, encodeBody(zonesResponse{m, snap.Zones})},
		"top":    {snap.cache.top.body, encodeBody(topResponse{m, CachedTopK, snap.TopK(CachedTopK)})},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("snapshot %d: cached %s body is not what the encoder writes\ncached:  %.300q\nencoder: %.300q", snap.Seq, name, pair[0], pair[1])
		}
	}
	for _, z := range snap.Zones {
		got, _ := snap.zoneBody(z.Zone)
		if want := encodeBody(zoneResponse{m, z, snap.ZonePoles(z.Zone)}); !bytes.Equal(got, want) {
			t.Errorf("snapshot %d: zone %q body is not what the encoder writes\ncut:     %.300q\nencoder: %.300q", snap.Seq, z.Zone, got, want)
		}
	}
	if (len(snap.Poles) > 0 && len(snap.off) != len(snap.Poles)+1) || len(snap.zoneOf) != len(snap.Poles) || len(snap.byID) != len(snap.Poles) {
		t.Errorf("snapshot %d: %d rows but %d offsets, %d zone entries, %d indexed",
			snap.Seq, len(snap.Poles), len(snap.off), len(snap.zoneOf), len(snap.byID))
		return
	}
	listing := snap.cache.poles.body
	for i, p := range snap.Poles {
		if i > 0 && snap.Poles[i-1].PoleID >= p.PoleID {
			t.Errorf("snapshot %d: rows %d and %d out of ID order", snap.Seq, i-1, i)
		}
		if snap.byID[p.PoleID] != i {
			t.Errorf("snapshot %d: byID[%d] = %d, want %d", snap.Seq, p.PoleID, snap.byID[p.PoleID], i)
		}
		if z := snap.Zones[snap.zoneOf[i]].Zone; z != p.Zone {
			t.Errorf("snapshot %d: row %d is in zone %q, its zone index says %q", snap.Seq, i, p.Zone, z)
		}
		if want, _ := json.Marshal(p); !bytes.Equal(listing[snap.off[i]:snap.off[i+1]-1], want) {
			t.Errorf("snapshot %d: row %d in the listing is stale: %s", snap.Seq, i, listing[snap.off[i]:snap.off[i+1]-1])
		}
	}
	ranked := make([]*PoleStats, len(snap.Poles))
	copy(ranked, snap.Poles)
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.LastCount != b.LastCount {
			return a.LastCount > b.LastCount
		}
		return a.PoleID < b.PoleID
	})
	if all := snap.TopK(len(ranked) + 1); len(all) != len(ranked) {
		t.Errorf("snapshot %d: TopK over every row returned %d of %d rows", snap.Seq, len(all), len(ranked))
	} else {
		for k := range all {
			if all[k] != *ranked[k] {
				t.Errorf("snapshot %d: TopK over every row has pole %d at %d, want %d", snap.Seq, all[k].PoleID, k, ranked[k].PoleID)
				break
			}
		}
	}
	if len(snap.top) != min(CachedTopK, len(ranked)) {
		t.Errorf("snapshot %d: %d busiest rows kept of %d", snap.Seq, len(snap.top), len(ranked))
	} else {
		for k, i := range snap.top {
			if snap.Poles[i] != ranked[k] {
				t.Errorf("snapshot %d: busiest row %d is pole %d, want %d", snap.Seq, k, snap.Poles[i].PoleID, ranked[k].PoleID)
			}
		}
	}
	for name, i := range snap.byZone {
		if snap.Zones[i].Zone != name {
			t.Errorf("snapshot %d: byZone[%q] = %d, which is zone %q", snap.Seq, name, i, snap.Zones[i].Zone)
		}
	}
}

// TestPatchedSnapshotEqualsFromScratch is the patcher's contract as a
// property: after any sequence of writes — counts, telemetry, alerts, a
// pole that registers, a pole that moves zone, a zone that appears and
// one that empties — the snapshot patched from its predecessor equals
// the one built from every row from nothing, in rows, rollups, busiest
// order and all four cached bodies, and both are what the encoder writes.
// Readers keep verifying older snapshots while later ones are patched
// from them: under -race, a shared row encoding or index written after
// publication is a reported race.
func TestPatchedSnapshotEqualsFromScratch(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const poles = 500
	zones := []string{"quad <north>", "stadium & field", "library"}
	id := func(k int) uint32 { return uint32(2 * (k + 1)) } // even, so a new odd ID lands mid-order
	hello := func(pole uint32, zone string) {
		s.withPole(pole, func(p *PoleStats) {
			p.Location = fmt.Sprintf("walk <%d> & \"gate\" > %s", pole, zone)
			p.Zone = zone
		})
	}
	for k := 0; k < poles; k++ {
		hello(id(k), zones[k%len(zones)])
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held []*Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cur := s.Current(); len(held) == 0 || held[len(held)-1] != cur {
					held = append(held, cur)
				}
				if len(held) > 4 {
					held = held[1:]
				}
				for _, snap := range held {
					checkSnapshotAgainstEncoder(t, snap)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(24))
	now := time.Now()
	for round := 0; round < 40 && !t.Failed(); round++ {
		for n := []int{0, 1, 5, 50, poles}[rng.Intn(5)]; n > 0; n-- {
			pole := id(rng.Intn(poles))
			switch rng.Intn(4) {
			case 0, 1:
				s.recordCount(wire.CountReport{PoleID: pole, Seq: uint64(round), Timestamp: now, Count: uint32(rng.Intn(40))})
			case 2:
				s.recordTelemetry(wire.Telemetry{PoleID: pole, Timestamp: now, PoleTemp: 20 + 40*rng.Float64(), Ambient: 25})
			case 3:
				s.withPole(pole, func(p *PoleStats) { p.Alerts++ })
			}
		}
		wantFull := round == 0
		switch round {
		case 7: // a pole the campus has not seen, in the middle of the ID order
			hello(id(poles/2)+1, zones[1])
			wantFull = true
		case 14: // a re-Hello moves a pole to another zone
			hello(id(3), zones[(3+1)%len(zones)])
			wantFull = true
		case 21: // ... to a zone that did not exist
			hello(id(4), "annex")
			wantFull = true
		case 28: // ... and back, which empties it
			hello(id(4), zones[4%len(zones)])
			wantFull = true
		case 33: // a re-Hello that changes nothing the index depends on
			hello(id(5), zones[5%len(zones)])
		}

		fullBefore := s.m.snapshotFullBuilds.Value()
		snap := s.RebuildSnapshot()
		if full := s.m.snapshotFullBuilds.Value() != fullBefore; full != wantFull {
			t.Errorf("round %d: full build = %v, want %v", round, full, wantFull)
		}
		want := newSnapshot(snap.Seq, snap.BuiltAt, allRows(s.reg))
		checkSnapshotAgainstEncoder(t, want)
		checkSnapshotConsistent(t, want)
		if !reflect.DeepEqual(snap.Poles, want.Poles) {
			t.Errorf("round %d: patched rows differ from a from-scratch build", round)
		}
		if !reflect.DeepEqual(snap.Zones, want.Zones) || snap.Campus != want.Campus {
			t.Errorf("round %d: patched rollups %+v %+v, from scratch %+v %+v", round, snap.Campus, snap.Zones, want.Campus, want.Zones)
		}
		if !reflect.DeepEqual(snap.top, want.top) {
			t.Errorf("round %d: patched busiest rows differ from a from-scratch build", round)
		}
		for name, pair := range map[string][2]cacheEntry{
			"campus": {snap.cache.campus, want.cache.campus}, "poles": {snap.cache.poles, want.cache.poles},
			"zones": {snap.cache.zones, want.cache.zones}, "top": {snap.cache.top, want.cache.top},
		} {
			if !bytes.Equal(pair[0].body, pair[1].body) || !reflect.DeepEqual(pair[0].clen, pair[1].clen) {
				t.Errorf("round %d: patched %s body differs from a from-scratch build", round, name)
			}
		}
		for _, z := range snap.Zones {
			got := snap.ZonePoles(z.Zone)
			var byScan []PoleStats
			for _, p := range snap.Poles {
				if p.Zone == z.Zone {
					byScan = append(byScan, *p)
				}
			}
			if !reflect.DeepEqual(got, byScan) {
				t.Errorf("round %d: ZonePoles(%q) returned %d rows, a scan of the rows finds %d", round, z.Zone, len(got), len(byScan))
			}
		}
	}
	close(stop)
	readers.Wait()

	if snap := s.Current(); len(snap.Poles) != poles+1 || len(snap.Zones) != len(zones) {
		t.Errorf("final campus has %d poles in %d zones, want %d in %d", len(snap.Poles), len(snap.Zones), poles+1, len(zones))
	}
	if s.Current().ZonePoles("annex") != nil {
		t.Error("ZonePoles of a zone the snapshot does not have is not nil")
	}
	if body := string(s.Current().cache.poles.body); !strings.Contains(body, `\u003c`) || !strings.Contains(body, `\u0026`) || strings.ContainsAny(body, "<&>") {
		t.Errorf("listing does not HTML-escape locations as the encoder does: %.200q", body)
	}
}

// TestEmptyCampusServesNullPoles: a campus with no poles lists null, as
// the encoder writes a nil slice, not an empty array.
func TestEmptyCampusServesNullPoles(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, snap := range []*Snapshot{s.Current(), s.RebuildSnapshot()} {
		checkSnapshotAgainstEncoder(t, snap)
		checkSnapshotConsistent(t, snap)
		rec := httptest.NewRecorder()
		s.APIHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/poles", nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"poles":null`) {
			t.Errorf("snapshot %d: empty campus listing: status %d body %q", snap.Seq, rec.Code, rec.Body.String())
		}
	}
}

// TestSnapshotBuildMetrics: an operator can see that publishes are
// patches and what they cost.
func TestSnapshotBuildMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	counters := func() (builds, full, rows uint64) {
		return reg.Counter("backend_snapshot_builds_total", "").Value(),
			reg.Counter("backend_snapshot_full_builds_total", "").Value(),
			reg.Counter("backend_snapshot_rows_encoded_total", "").Value()
	}

	for id := uint32(1); id <= 3; id++ {
		s.recordCount(wire.CountReport{PoleID: id, Seq: 1, Count: id})
	}
	s.RebuildSnapshot()
	if builds, full, rows := counters(); builds != 1 || full != 1 || rows != 3 {
		t.Errorf("after registering 3 poles: builds %d full %d rows %d, want 1 1 3", builds, full, rows)
	}
	s.recordCount(wire.CountReport{PoleID: 2, Seq: 2, Count: 9})
	s.RebuildSnapshot()
	if builds, full, rows := counters(); builds != 2 || full != 1 || rows != 4 {
		t.Errorf("after one more report: builds %d full %d rows %d, want 2 1 4 (a patch encodes the one row)", builds, full, rows)
	}
	if h := reg.Histogram("backend_snapshot_build_seconds", "", nil).Snapshot(); h.Count != 2 || h.Sum <= 0 {
		t.Errorf("build time histogram count=%d sum=%g, want 2 builds timed", h.Count, h.Sum)
	}
}

// TestReportPublishedOnChange drives the publisher through a real
// connection with an interval of a minute: a loop that waited for its
// tick would show nothing before the deadline, a publisher woken by the
// write shows the report as it is acked — and the next one too, because
// what spaces builds is what the last build cost, not the interval. An
// idle backend then publishes nothing.
func TestReportPublishedOnChange(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialBackend(t, s)
	if err := c.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{PoleID: 7, Location: "Palm Walk", Zone: "quad"})); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := c.Send(wire.MsgCountReport, wire.EncodeCountReport(wire.CountReport{PoleID: 7, Seq: uint64(seq), Count: uint32(seq)})); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := c.Recv(); err != nil || typ != wire.MsgAck {
			t.Fatalf("ack %d: type=%d err=%v", seq, typ, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if p, _ := s.Current().Pole(7); p.Reports == seq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("report %d acked but not in Current() after 10s; the publisher is waiting for something other than the write", seq)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	locks := s.reg.lockAcquisitions.Load()
	seq := s.Current().Seq
	time.Sleep(30 * time.Millisecond)
	if got := s.Current().Seq; got != seq {
		t.Errorf("idle backend published %d snapshots", got-seq)
	}
	if got := s.reg.lockAcquisitions.Load(); got != locks {
		t.Errorf("idle backend took %d shard locks", got-locks)
	}
}

// TestPublisherPacing runs the publisher loop over a build made to cost
// more than a quarter of the interval, beside a writer that never stops:
// builds never overlap, and start no more often than the interval.
func TestPublisherPacing(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		interval = 20 * time.Millisecond
		cost     = interval/4 + 2*time.Millisecond
		runFor   = 300 * time.Millisecond
	)
	var inFlight, builds atomic.Int32
	var overlapped atomic.Bool
	build := func() {
		if inFlight.Add(1) > 1 {
			overlapped.Store(true)
		}
		time.Sleep(cost)
		s.publish(false)
		builds.Add(1)
		inFlight.Add(-1)
	}
	t0 := time.Now()
	s.wg.Add(1)
	go s.publishLoop(interval, build)
	for i := 0; time.Since(t0) < runFor; i++ {
		s.recordCount(wire.CountReport{PoleID: uint32(1 + i%8), Seq: uint64(i), Count: 1})
		time.Sleep(50 * time.Microsecond)
	}
	s.Close() // returns once the loop has exited
	elapsed := time.Since(t0)

	if overlapped.Load() {
		t.Error("two builds were in flight at once")
	}
	n := int(builds.Load())
	if n < 2 {
		t.Fatalf("a sustained writer got %d builds in %v", n, elapsed)
	}
	// Build k starts no sooner than k intervals after build 0.
	if most := int(elapsed/interval) + 1; n > most {
		t.Errorf("%d builds in %v: more often than every %v", n, elapsed, interval)
	}
	if got := s.Current().Seq; got == 0 || got > uint64(n) {
		t.Errorf("%d builds published %d snapshots", n, got)
	}
}

// TestPublisherPacesByListingBytes runs the publisher over a campus whose
// listing is large and whose patches are cheap, beside a writer that
// never stops: builds start no more often than the listing can be copied
// at listingBytesPerSecond, though four build times would allow more.
func TestPublisherPacesByListingBytes(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		poles  = 10000
		runFor = 300 * time.Millisecond
	)
	for id := uint32(1); id <= poles; id++ {
		s.withPole(id, func(p *PoleStats) {
			p.Location = fmt.Sprintf("campus walkway %d", id)
			p.Zone = fmt.Sprintf("zone-%02d", id%64)
		})
	}
	gap := time.Duration(float64(len(s.RebuildSnapshot().cache.poles.body)) / listingBytesPerSecond * float64(time.Second))
	var builds atomic.Int32
	t0 := time.Now()
	s.wg.Add(1)
	go s.publishLoop(time.Second, func() {
		s.publish(false)
		builds.Add(1)
	})
	for i := 0; time.Since(t0) < runFor; i++ {
		s.recordCount(wire.CountReport{PoleID: uint32(1 + i%poles), Seq: uint64(i), Count: 1})
		time.Sleep(20 * time.Microsecond)
	}
	s.Close()
	elapsed := time.Since(t0)

	n := int(builds.Load())
	if n < 2 {
		t.Fatalf("a sustained writer got %d builds in %v", n, elapsed)
	}
	if most := int(elapsed/gap) + 1; n > most {
		t.Errorf("%d builds in %v: more often than every %v, the time to copy the listing at %.0f MB/s", n, elapsed, gap, listingBytesPerSecond/1e6)
	}
}

// TestPatchAllocatesAboutTheListing is the patch's allocation gate: at
// 10,000 poles with 100 rows written, a build allocates about one
// listing — the new /api/poles body, beside which the row pointers, the
// offset table and the written rows are small — and about one object per
// written row. A patch that copied the rows, encoded a row into a slice
// of its own or assembled the listing twice would fail it.
func TestPatchAllocatesAboutTheListing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	s, err := Listen(Config{Addr: "127.0.0.1:0", SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		poles  = 10000
		dirty  = 100
		rounds = 20
	)
	now := time.Now()
	for id := uint32(1); id <= poles; id++ {
		s.withPole(id, func(p *PoleStats) {
			p.Location = fmt.Sprintf("campus walkway %d", id)
			p.Zone = fmt.Sprintf("zone-%02d", id%64)
		})
		s.recordCount(wire.CountReport{PoleID: id, Seq: 1, Timestamp: now, Count: id % 40})
		s.recordTelemetry(wire.Telemetry{PoleID: id, Timestamp: now, PoleTemp: 30 + float64(id%200)/10, Ambient: 25})
	}
	s.RebuildSnapshot()

	rng := rand.New(rand.NewSource(26))
	var bytesAlloc, objects uint64
	var listing int
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		for _, k := range rng.Perm(poles)[:dirty] {
			s.recordCount(wire.CountReport{PoleID: uint32(k + 1), Seq: uint64(r + 2), Timestamp: now, Count: uint32(rng.Intn(40))})
		}
		runtime.ReadMemStats(&before)
		snap := s.RebuildSnapshot()
		runtime.ReadMemStats(&after)
		bytesAlloc += after.TotalAlloc - before.TotalAlloc
		objects += after.Mallocs - before.Mallocs
		listing = len(snap.cache.poles.body)
	}
	perListing := float64(bytesAlloc) / rounds / float64(listing)
	perBuild := float64(objects) / rounds
	t.Logf("a %d-dirty patch of %d poles allocates %.2f× its %d-byte listing in %.0f objects", dirty, poles, perListing, listing, perBuild)
	if perListing > 1.25 {
		t.Errorf("a patch allocates %.2f× the listing, want at most 1.25×", perListing)
	}
	if perBuild > dirty+100 {
		t.Errorf("a patch allocates %.0f objects, want at most %d (written rows + 100)", perBuild, dirty+100)
	}
}
