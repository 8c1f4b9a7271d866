package backend

import (
	"sort"
	"time"
)

// ZoneStats aggregates the poles of one campus zone within a snapshot.
type ZoneStats struct {
	Zone       string `json:"zone"`
	Poles      int    `json:"poles"`
	Count      int    `json:"count"`       // sum of the zone's most recent per-pole counts
	PeakCount  int    `json:"peak_count"`  // highest single-report count any pole in the zone has seen
	Reports    int64  `json:"reports"`     // reports received from the zone since start
	TotalCount int64  `json:"total_count"` // sum of every count ever reported by the zone
	Alerts     int    `json:"alerts"`
}

// CampusStats is the campus-wide rollup of a snapshot.
type CampusStats struct {
	Poles      int   `json:"poles"`
	Zones      int   `json:"zones"`
	Count      int   `json:"count"` // current campus-wide crowd count
	PeakCount  int   `json:"peak_count"`
	Reports    int64 `json:"reports"`
	TotalCount int64 `json:"total_count"`
	Alerts     int   `json:"alerts"`
}

// Snapshot is an immutable, internally consistent view of the whole
// campus, derived from the previous snapshot and the rows written since
// it (patch). Everything the query API serves comes from the current
// snapshot — a reader holds no lock, so an arbitrarily slow dashboard
// scrape can never stall the report ingest path. Campus and zone rollups
// are computed from the snapshot's own per-pole rows, so within one
// snapshot the totals always equal the sum of their parts (no torn reads
// across shards). Nothing reachable from a published snapshot is written
// again: successive snapshots share what did not change (the indexes,
// the row encodings), they never update it.
type Snapshot struct {
	// Seq increments on every publication; BuiltAt is the build time.
	Seq     uint64      `json:"seq"`
	BuiltAt time.Time   `json:"built_at"`
	Campus  CampusStats `json:"campus"`
	// Poles is sorted by pole ID; Zones by zone name.
	Poles []PoleStats `json:"poles"`
	Zones []ZoneStats `json:"zones"`

	// The index: row of a pole, entry of a zone, zone entry of a row. It
	// depends only on which poles exist and which zone each is in, so a
	// snapshot shares its predecessor's until a pole is new or moves.
	byID   map[uint32]int
	byZone map[string]int
	zoneOf []int32 // parallel to Poles, into Zones

	// rowJSON[i] is Poles[i] as it appears in every response body. A
	// row's bytes are made once, when the row changes, and shared by
	// every later snapshot that still has the row unchanged.
	rowJSON [][]byte
	busiest []int // indices into Poles, by LastCount desc then ID asc

	// cache holds the pre-serialized hot-endpoint bodies for THIS
	// snapshot (respcache.go). Riding inside the snapshot, it is
	// published by the same atomic store — body and ETag can never come
	// from different builds. Always non-nil on a published snapshot.
	cache *respCache
}

// newSnapshot builds a snapshot of rows from nothing: a patch of the
// empty campus in which every row is new.
func newSnapshot(seq uint64, builtAt time.Time, rows []PoleStats) *Snapshot {
	s, _ := new(Snapshot).patch(seq, builtAt, rows)
	return s
}

// patch derives the next snapshot from prev and the rows written since
// prev was built (each pole at most once; dirty is only read). The row
// slice is copied and the dirty rows overwritten; only they are encoded
// again, only they are re-sorted into the busiest order, and the index
// is prev's. When a dirty row is a pole prev has not seen, or has moved
// to another zone, the index is derived again and every row counts as
// dirty — the same code, and what the first build is. full reports that
// case.
func (prev *Snapshot) patch(seq uint64, builtAt time.Time, dirty []PoleStats) (s *Snapshot, full bool) {
	s = &Snapshot{Seq: seq, BuiltAt: builtAt}
	s.Poles = append([]PoleStats(nil), prev.Poles...)
	changed := make([]int, 0, len(dirty)) // rows of s.Poles to encode and re-rank
	for _, d := range dirty {
		i, ok := prev.byID[d.PoleID]
		if !ok {
			s.Poles = append(s.Poles, d)
			full = true
			continue
		}
		full = full || d.Zone != prev.Poles[i].Zone
		s.Poles[i] = d
		changed = append(changed, i)
	}
	ranked := prev.busiest // the order the unchanged rows keep
	if full {
		s.index()
		s.rowJSON = make([][]byte, len(s.Poles))
		changed, ranked = changed[:0], nil
		for i := range s.Poles {
			changed = append(changed, i)
		}
	} else {
		s.byID, s.byZone, s.zoneOf = prev.byID, prev.byZone, prev.zoneOf
		s.rowJSON = append([][]byte(nil), prev.rowJSON...)
	}
	for _, i := range changed {
		s.rowJSON[i] = encodeRow(&s.Poles[i])
	}
	s.sumRollups()
	s.rank(ranked, changed)
	// Pre-serialize the hot endpoint bodies once, before publication:
	// the build-amortized cost that makes every cached request free.
	s.cache = buildRespCache(s)
	return s, full
}

// index sorts the rows by pole ID and derives byID, byZone (zones in
// name order) and zoneOf from them.
func (s *Snapshot) index() {
	sort.Slice(s.Poles, func(i, j int) bool { return s.Poles[i].PoleID < s.Poles[j].PoleID })
	s.byID = make(map[uint32]int, len(s.Poles))
	s.byZone = make(map[string]int)
	var names []string
	for i := range s.Poles {
		p := &s.Poles[i]
		s.byID[p.PoleID] = i
		if _, ok := s.byZone[p.Zone]; !ok {
			s.byZone[p.Zone] = 0
			names = append(names, p.Zone)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		s.byZone[name] = i
	}
	s.zoneOf = make([]int32, len(s.Poles))
	for i := range s.Poles {
		s.zoneOf[i] = int32(s.byZone[s.Poles[i].Zone])
	}
}

// sumRollups computes Zones and Campus from the rows: the one place a
// rollup is summed, whether one row changed or all of them.
func (s *Snapshot) sumRollups() {
	if len(s.byZone) > 0 {
		s.Zones = make([]ZoneStats, len(s.byZone))
	}
	for name, i := range s.byZone {
		s.Zones[i].Zone = name
	}
	for i := range s.Poles {
		p, z := &s.Poles[i], &s.Zones[s.zoneOf[i]]
		z.Poles++
		z.Count += p.LastCount
		z.Reports += int64(p.Reports)
		z.TotalCount += p.TotalCount
		z.Alerts += p.Alerts
		if p.PeakCount > z.PeakCount {
			z.PeakCount = p.PeakCount
		}
	}
	for _, z := range s.Zones {
		s.Campus.Count += z.Count
		s.Campus.Reports += z.Reports
		s.Campus.TotalCount += z.TotalCount
		s.Campus.Alerts += z.Alerts
		if z.PeakCount > s.Campus.PeakCount {
			s.Campus.PeakCount = z.PeakCount
		}
	}
	s.Campus.Poles = len(s.Poles)
	s.Campus.Zones = len(s.Zones)
}

// rank sets busiest: the changed rows, sorted, merged into ranked (an
// earlier snapshot's order over the same rows, read only) with the
// changed rows taken out of it.
func (s *Snapshot) rank(ranked, changed []int) {
	busier := func(i, j int) bool {
		a, b := &s.Poles[i], &s.Poles[j]
		if a.LastCount != b.LastCount {
			return a.LastCount > b.LastCount
		}
		return a.PoleID < b.PoleID
	}
	sort.Slice(changed, func(i, j int) bool { return busier(changed[i], changed[j]) })
	isChanged := make([]bool, len(s.Poles))
	for _, i := range changed {
		isChanged[i] = true
	}
	s.busiest = make([]int, 0, len(s.Poles))
	for _, i := range ranked {
		if isChanged[i] {
			continue
		}
		for len(changed) > 0 && busier(changed[0], i) {
			s.busiest = append(s.busiest, changed[0])
			changed = changed[1:]
		}
		s.busiest = append(s.busiest, i)
	}
	s.busiest = append(s.busiest, changed...)
}

// Pole returns one pole's aggregates from the snapshot.
func (s *Snapshot) Pole(id uint32) (PoleStats, bool) {
	i, ok := s.byID[id]
	if !ok {
		return PoleStats{}, false
	}
	return s.Poles[i], true
}

// Zone returns one zone's rollup from the snapshot.
func (s *Snapshot) Zone(name string) (ZoneStats, bool) {
	i, ok := s.byZone[name]
	if !ok {
		return ZoneStats{}, false
	}
	return s.Zones[i], true
}

// ZonePoles returns the snapshot's poles belonging to the zone, by ID.
func (s *Snapshot) ZonePoles(name string) []PoleStats {
	zi, ok := s.byZone[name]
	if !ok {
		return nil
	}
	out := make([]PoleStats, 0, s.Zones[zi].Poles)
	for i, z := range s.zoneOf {
		if int(z) == zi {
			out = append(out, s.Poles[i])
		}
	}
	return out
}

// TopK returns the k busiest poles by most recent count (ties broken by
// pole ID), fewer if the campus has fewer poles.
func (s *Snapshot) TopK(k int) []PoleStats {
	if k > len(s.busiest) {
		k = len(s.busiest)
	}
	if k <= 0 {
		return nil
	}
	out := make([]PoleStats, k)
	for i := 0; i < k; i++ {
		out[i] = s.Poles[s.busiest[i]]
	}
	return out
}

// DefaultSnapshotInterval is the longest a written row waits to be
// published when Config.SnapshotInterval is zero. The publisher builds
// when rows change and spaces its builds by four times what the last one
// cost (publishLoop), so this bound is reached only when a build costs
// more than a quarter of it — a 10k-pole campus with most rows written
// between builds. 50ms is far below human dashboard latency.
const DefaultSnapshotInterval = 50 * time.Millisecond

// Current returns the latest published snapshot without taking any
// lock: one atomic pointer load. This is the read path behind every
// query API endpoint and is safe to call at arbitrary rates.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// RebuildSnapshot patches the rows written since the last build into a
// new snapshot, publishes it, and returns it — a new Seq even when no
// row changed. Tests and end-of-run reporting call it for an
// up-to-the-call view; the publisher goes through the same builder.
// Builders serialize among themselves but never block Current readers.
func (s *Server) RebuildSnapshot() *Snapshot { return s.publish(true) }

// publish is the one snapshot builder. With always unset it publishes
// nothing when no row was written since the last build, which is how a
// wake-up whose rows an earlier build already took costs one collect.
func (s *Server) publish(always bool) *Snapshot {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	t0 := time.Now()
	prev := s.Current()
	s.dirtyRows = s.reg.collect(s.dirtyRows[:0])
	if len(s.dirtyRows) == 0 && !always {
		return prev
	}
	s.buildSeq++
	snap, full := prev.patch(s.buildSeq, time.Now(), s.dirtyRows)
	s.snap.Store(snap)
	s.m.snapshotBuilds.Inc()
	if full {
		s.m.snapshotFullBuilds.Inc()
		s.m.snapshotRowsEncoded.Add(uint64(len(snap.Poles)))
	} else {
		s.m.snapshotRowsEncoded.Add(uint64(len(s.dirtyRows)))
	}
	s.m.snapshotPoles.Set(float64(len(snap.Poles)))
	s.m.snapshotBuilt.SetTime(snap.BuiltAt)
	s.m.snapshotBuildTime.ObserveDuration(time.Since(t0))
	return snap
}

// publishLoop calls build (publish(false), but for the pacing tests)
// when a write says rows changed — wake holds at most one pending
// signal, so an idle campus builds nothing — and never two at once.
// After a build that took d it starts the next no sooner than
// min(longest, 4d) after this one started: publishing takes at most a
// quarter of one core, a campus cheap to patch is published within a few
// build times of a write, and one expensive to patch no less often than
// every longest.
func (s *Server) publishLoop(longest time.Duration, build func()) {
	defer s.wg.Done()
	pace := time.NewTimer(0)
	defer pace.Stop()
	for {
		select {
		case <-s.loopCtx.Done():
			return
		case <-pace.C:
		}
		select {
		case <-s.loopCtx.Done():
			return
		case <-s.wake:
		}
		start := time.Now()
		build()
		d := time.Since(start)
		pace.Reset(min(longest, 4*d) - d)
	}
}
