package backend

import (
	"cmp"
	"slices"
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
// are kept equal to the sums of the snapshot's own per-pole rows, so
// within one snapshot the totals always equal the sum of their parts (no
// torn reads across shards). Nothing reachable from a published snapshot is written
// again: successive snapshots share what did not change (the rows, the
// indexes, the busiest rows), they never update it.
type Snapshot struct {
	// Seq increments on every publication; BuiltAt is the build time.
	Seq     uint64      `json:"seq"`
	BuiltAt time.Time   `json:"built_at"`
	Campus  CampusStats `json:"campus"`
	// Poles is sorted by pole ID; Zones by zone name. A row is shared by
	// every later snapshot in which its pole has not been written.
	Poles []*PoleStats `json:"poles"`
	Zones []ZoneStats  `json:"zones"`

	// The index: row of a pole, entry of a zone, zone entry of a row, rows
	// of a zone (in ID order). It depends only on which poles exist and
	// which zone each is in, so a snapshot shares its predecessor's until
	// a pole is new or moves.
	byID     map[uint32]int
	byZone   map[string]int
	zoneOf   []int32
	zoneRows [][]int32

	// off[i] is where row i starts in the /api/poles body (listing), and
	// off[len(Poles)] one past the last row's separator.
	off []int32
	// top is the rows of the CachedTopK busiest poles (by LastCount desc
	// then ID asc), busiest first; all rows when there are fewer.
	top []int32

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
// prev was built (each pole at most once; dirty is only read), in work
// proportional to the dirty rows: prev's row pointers are copied and the
// dirty rows' replaced by new ones, only they are encoded, each zone
// moves by their difference from the rows they replace, prev's busiest
// rows are kept unless a dirty row was one of them or beats the last, and
// the listing is prev's with their bytes spliced in. The index is prev's.
// When a dirty row is a pole prev has not seen, or has moved to another
// zone, the index and rollups are derived again and every row is
// encoded: what the first build is. full reports that case.
func (prev *Snapshot) patch(seq uint64, builtAt time.Time, dirty []PoleStats) (s *Snapshot, full bool) {
	s = &Snapshot{Seq: seq, BuiltAt: builtAt}
	s.Poles = append([]*PoleStats(nil), prev.Poles...)
	changed := make([]int, 0, len(dirty)) // rows of s.Poles that differ from prev's
	for _, d := range dirty {
		p := new(PoleStats)
		*p = d
		i, ok := prev.byID[d.PoleID]
		if !ok {
			s.Poles = append(s.Poles, p)
			full = true
			continue
		}
		full = full || d.Zone != prev.Poles[i].Zone
		s.Poles[i] = p
		changed = append(changed, i)
	}
	if full {
		s.index()
		s.sumRollups()
		s.top = s.busiest(CachedTopK)
	} else {
		s.byID, s.byZone, s.zoneOf, s.zoneRows = prev.byID, prev.byZone, prev.zoneOf, prev.zoneRows
		s.moveRollups(prev, changed)
		s.rankTop(prev, changed)
		slices.Sort(changed)
	}
	// Pre-serialize the hot endpoint bodies once, before publication:
	// the build-amortized cost that makes every cached request free.
	s.cache = buildRespCache(s, s.listing(prev, changed, full))
	return s, full
}

// index sorts the rows by pole ID and derives byID, byZone (zones in
// name order), zoneOf and zoneRows from them.
func (s *Snapshot) index() {
	sort.Slice(s.Poles, func(i, j int) bool { return s.Poles[i].PoleID < s.Poles[j].PoleID })
	s.byID = make(map[uint32]int, len(s.Poles))
	s.byZone = make(map[string]int)
	var names []string
	for i, p := range s.Poles {
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
	s.zoneRows = make([][]int32, len(names))
	for i, p := range s.Poles {
		z := int32(s.byZone[p.Zone])
		s.zoneOf[i] = z
		s.zoneRows[z] = append(s.zoneRows[z], int32(i))
	}
}

// sumRollups computes Zones and Campus from every row: a full build's
// rollups.
func (s *Snapshot) sumRollups() {
	if len(s.byZone) > 0 {
		s.Zones = make([]ZoneStats, len(s.byZone))
	}
	for name, i := range s.byZone {
		s.Zones[i].Zone = name
	}
	for i, p := range s.Poles {
		z := &s.Zones[s.zoneOf[i]]
		z.Poles++
		z.Count += p.LastCount
		z.Reports += int64(p.Reports)
		z.TotalCount += p.TotalCount
		z.Alerts += p.Alerts
		z.PeakCount = max(z.PeakCount, p.PeakCount)
	}
	s.sumCampus()
}

// moveRollups computes Zones from prev's, moving each zone by the
// difference between each changed row and the row it replaces: a patch's
// rollups, equal to sumRollups' without visiting the rows that did not
// change. A row's peak never falls, so a zone's peak is the larger of
// its own and the row's.
func (s *Snapshot) moveRollups(prev *Snapshot, changed []int) {
	s.Zones = append([]ZoneStats(nil), prev.Zones...)
	for _, i := range changed {
		p, old, z := s.Poles[i], prev.Poles[i], &s.Zones[s.zoneOf[i]]
		z.Count += p.LastCount - old.LastCount
		z.Reports += int64(p.Reports - old.Reports)
		z.TotalCount += p.TotalCount - old.TotalCount
		z.Alerts += p.Alerts - old.Alerts
		z.PeakCount = max(z.PeakCount, p.PeakCount)
	}
	s.sumCampus()
}

// sumCampus computes Campus from Zones.
func (s *Snapshot) sumCampus() {
	for _, z := range s.Zones {
		s.Campus.Count += z.Count
		s.Campus.Reports += z.Reports
		s.Campus.TotalCount += z.TotalCount
		s.Campus.Alerts += z.Alerts
		s.Campus.PeakCount = max(s.Campus.PeakCount, z.PeakCount)
	}
	s.Campus.Poles = len(s.Poles)
	s.Campus.Zones = len(s.Zones)
}

// byBusy orders rows i and j by LastCount desc, then pole ID asc.
func (s *Snapshot) byBusy(i, j int32) int {
	a, b := s.Poles[i], s.Poles[j]
	if c := cmp.Compare(b.LastCount, a.LastCount); c != 0 {
		return c
	}
	return cmp.Compare(a.PoleID, b.PoleID)
}

// rankTop sets top after a patch. prev's busiest rows are still the
// busiest when none of them changed and no changed row beats the last of
// them (the rows they were ranked above have not moved); otherwise they
// are found again.
func (s *Snapshot) rankTop(prev *Snapshot, changed []int) {
	if len(prev.top) == CachedTopK {
		last := prev.top[CachedTopK-1]
		if !slices.ContainsFunc(changed, func(i int) bool {
			return s.byBusy(int32(i), last) < 0 || slices.Contains(prev.top, int32(i))
		}) {
			s.top = prev.top
			return
		}
	}
	s.top = s.busiest(CachedTopK)
}

// busiest returns the rows of the k busiest poles, busiest first (all
// rows when there are fewer). For up to CachedTopK that is one pass
// holding the best k seen; a request for more sorts every row.
func (s *Snapshot) busiest(k int) []int32 {
	if k > CachedTopK {
		rows := make([]int32, len(s.Poles))
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, s.byBusy)
		return rows[:min(k, len(rows))]
	}
	top := make([]int32, 0, k+1)
	for i := range s.Poles {
		r := int32(i)
		if len(top) == k && s.byBusy(r, top[k-1]) > 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(top, r, s.byBusy)
		top = slices.Insert(top, at, r)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// Pole returns one pole's aggregates from the snapshot.
func (s *Snapshot) Pole(id uint32) (PoleStats, bool) {
	i, ok := s.byID[id]
	if !ok {
		return PoleStats{}, false
	}
	return *s.Poles[i], true
}

// ZonePoles returns the snapshot's poles belonging to the zone, by ID.
func (s *Snapshot) ZonePoles(name string) []PoleStats {
	zi, ok := s.byZone[name]
	if !ok {
		return nil
	}
	return s.rows(s.zoneRows[zi])
}

// TopK returns the k busiest poles by most recent count (ties broken by
// pole ID), fewer if the campus has fewer poles.
func (s *Snapshot) TopK(k int) []PoleStats {
	rows := s.top
	if k > len(rows) && len(rows) == CachedTopK {
		rows = s.busiest(k)
	}
	if k = min(k, len(rows)); k <= 0 {
		return nil
	}
	return s.rows(rows[:k])
}

// rows copies the given rows out of the snapshot.
func (s *Snapshot) rows(idx []int32) []PoleStats {
	out := make([]PoleStats, len(idx))
	for j, i := range idx {
		out[j] = *s.Poles[i]
	}
	return out
}

// DefaultSnapshotInterval is the longest a written row waits to be
// published when Config.SnapshotInterval is zero. The publisher builds
// when rows change and spaces its builds by what the last one cost
// (publishLoop), so this bound is reached only when a build costs more
// than a quarter of it. 50ms is far below human dashboard latency.
const DefaultSnapshotInterval = 50 * time.Millisecond

// listingBytesPerSecond bounds how fast the publisher writes /api/poles
// bodies. A patch is cheap except for allocating and copying a whole new
// listing, and what that costs the rest of the process — garbage
// collection paced by the bytes allocated, caches refilled — is not in
// the build's own time: paced at four build times alone, a 10,000-pole
// campus (a 2.2 MB listing) was republished ~750 times a second on a
// 2-vCPU host, and the listing served beside saturated ingest took a
// quarter longer. At this rate that campus is republished at most every
// 2.2 ms; a campus of a few hundred poles is never held back by it.
const listingBytesPerSecond = 1e9

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
// After a build that took d and left a listing of n bytes it starts the
// next no sooner than min(longest, max(4d, n/listingBytesPerSecond))
// after this one started: publishing takes at most a quarter of one core
// and copies at most listingBytesPerSecond, a campus cheap to patch is
// published within a few build times of a write, and one expensive to
// patch no less often than every longest.
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
		copying := time.Duration(float64(len(s.Current().cache.poles.body)) / listingBytesPerSecond * float64(time.Second))
		pace.Reset(min(longest, max(4*d, copying)) - d)
	}
}
