package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the series-map shard count: a power of two, so shard
// selection is a mask. Series hash to shards by pole ID with the same
// murmur3 finalizer the backend registry uses, so a fleet's append
// streams contend only on pole collisions.
const DefaultShards = 64

// DefaultSampleInterval is read by no loop in the tree: the backend
// appends to the store on the report path and the store runs no loop of
// its own. It stays only because bench/binding.go binds it under this
// name, as the settle time awaitHistory waits after registering a fleet,
// and bench/ may not change outside a benchmark issue; it leaves with
// the next one.
const DefaultSampleInterval = time.Second

// The store's sizes. A series' hot buffer holds chunkSamples samples and
// seals into an immutable chunk on the append after it fills; memory
// keeps each series' newest maxChunks sealed chunks (a ring, so a series
// holds at most (maxChunks+1)·chunkSamples samples). With a Dir, the
// active segment file rotates once it passes segmentBytes and the
// directory keeps the newest maxSegments files.
const (
	chunkSamples = 512
	maxChunks    = 256
	segmentBytes = 1 << 20
	maxSegments  = 8
)

// Config parameterizes a Store. Every size is one of the constants above;
// where history persists is the one setting.
type Config struct {
	// Dir, when non-empty, makes the store persistent. New reads the
	// directory's segment files back first, so a restarted process serves
	// the history it had before (Stats.Loaded); sealed chunks then stream
	// to size-rotated segment files in it (see segment.go for the format
	// and for what New does with a torn file). Empty keeps the store
	// memory-only.
	Dir string
}

// SeriesKey identifies one series: a pole and a short name like "count"
// or "pole_temp_c".
type SeriesKey struct {
	Pole uint32 `json:"pole"`
	Name string `json:"name"`
}

// Store is the concurrent FTDC-style capture. Appends go through Series
// handles (get-or-create via Series, cacheable by the caller so the hot
// path does no map lookups); reads decode immutable sealed chunks plus a
// brief copy of the hot tail, so a slow historical query never blocks an
// append for more than the tail copy.
type Store struct {
	shards []storeShard
	mask   uint32

	seriesN   atomic.Int64
	appended  atomic.Uint64 // lifetime samples appended
	loadedN   atomic.Uint64 // samples New read back from Dir
	sealedN   atomic.Uint64 // lifetime samples sealed into chunks
	sealedB   atomic.Uint64 // lifetime encoded bytes sealed
	droppedN  atomic.Uint64 // samples evicted by the ring
	intChunks atomic.Uint64 // sealed chunks that chose int-delta encoding
	nextID    atomic.Uint32

	truncated uint64 // torn-tail bytes New cut from Dir's segments
	disk      *segmentWriter
}

type storeShard struct {
	mu     sync.RWMutex
	series map[SeriesKey]*Series
}

// New builds a store. With a Dir it reads the directory back before the
// writer opens its first file: rotation both creates a fresh (buffered,
// unflushed) file that a reader must not see mid-write and prunes old
// files that should still contribute to the restart's memory view. The
// error is the directory's: it cannot be created or written, or a
// segment in it is malformed beyond a torn tail.
func New(cfg Config) (*Store, error) {
	s := &Store{shards: make([]storeShard, DefaultShards), mask: DefaultShards - 1}
	for i := range s.shards {
		s.shards[i].series = make(map[SeriesKey]*Series)
	}
	if cfg.Dir == "" {
		return s, nil
	}
	segs, cut, err := readDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: read %s back: %w", cfg.Dir, err)
	}
	for _, ss := range segs {
		s.Series(ss.Key.Pole, ss.Key.Name).load(ss.Samples)
	}
	s.truncated = uint64(cut)
	if s.disk, err = newSegmentWriter(cfg.Dir); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New for memory-only configs, where no error is possible.
func MustNew(cfg Config) *Store {
	cfg.Dir = ""
	s, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("tsdb: %v", err))
	}
	return s
}

// Close flushes and closes the disk writer, if any. The store remains
// usable in memory afterwards; further seals are no longer persisted.
func (s *Store) Close() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.close()
}

// mixPole is the murmur3-style finalizer the backend registry uses, so
// sequential pole IDs spread across shards.
func mixPole(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

func (s *Store) shard(pole uint32) *storeShard {
	return &s.shards[mixPole(pole)&s.mask]
}

// Series returns the handle for key, creating the series on first use.
// Handles are shared and safe for concurrent appenders; callers on a hot
// path should cache them (the backend caches per-pole handles in its
// registry entries).
func (s *Store) Series(pole uint32, name string) *Series {
	key := SeriesKey{Pole: pole, Name: name}
	sh := s.shard(pole)
	sh.mu.RLock()
	sr, ok := sh.series[key]
	sh.mu.RUnlock()
	if ok {
		return sr
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sr, ok = sh.series[key]; ok {
		return sr
	}
	sr = &Series{
		st:   s,
		Key:  key,
		id:   s.nextID.Add(1),
		ts:   make([]int64, chunkSamples),
		vals: make([]float64, chunkSamples),
	}
	sh.series[key] = sr
	s.seriesN.Add(1)
	return sr
}

// Lookup returns the handle for key without creating it.
func (s *Store) Lookup(pole uint32, name string) (*Series, bool) {
	sh := s.shard(pole)
	sh.mu.RLock()
	sr, ok := sh.series[SeriesKey{Pole: pole, Name: name}]
	sh.mu.RUnlock()
	return sr, ok
}

// Append records one sample on (pole, name), creating the series on
// first use. Hot paths should hold a Series handle instead.
func (s *Store) Append(pole uint32, name string, ts int64, v float64) {
	s.Series(pole, name).Append(ts, v)
}

// SeriesMeta describes one series for the /api/history/series listing.
type SeriesMeta struct {
	Name    string `json:"name"`
	Samples uint64 `json:"samples"` // lifetime appended
	FirstTS int64  `json:"first_ts"`
	LastTS  int64  `json:"last_ts"`
}

// PoleSeries lists the pole's series sorted by name.
func (s *Store) PoleSeries(pole uint32) []SeriesMeta {
	sh := s.shard(pole)
	sh.mu.RLock()
	handles := make([]*Series, 0, 8)
	for key, sr := range sh.series {
		if key.Pole == pole {
			handles = append(handles, sr)
		}
	}
	sh.mu.RUnlock()
	out := make([]SeriesMeta, 0, len(handles))
	for _, sr := range handles {
		sr.mu.Lock()
		out = append(out, SeriesMeta{
			Name:    sr.Key.Name,
			Samples: sr.total,
			FirstTS: sr.firstTS,
			LastTS:  sr.lastTS,
		})
		sr.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats summarizes the store for benchmarks and diagnostics.
type Stats struct {
	Series          int     `json:"series"`
	Appended        uint64  `json:"appended"`        // lifetime samples appended
	Loaded          uint64  `json:"loaded"`          // samples New read back from Dir
	TruncatedBytes  uint64  `json:"truncated_bytes"` // torn-tail bytes New cut from Dir's segments
	Retained        uint64  `json:"retained"`        // decodable right now: sealed in memory + hot
	SealedSamples   uint64  `json:"sealed_samples"`
	SealedBytes     uint64  `json:"sealed_bytes"`
	DroppedSamples  uint64  `json:"dropped_samples"` // evicted by the per-series ring
	IntChunks       uint64  `json:"int_chunks"`
	BytesPerSample  float64 `json:"bytes_per_sample"` // sealed bytes / sealed samples
	NaiveBytes      uint64  `json:"naive_bytes"`      // 16-byte (ts,value) rows
	CompressionVs16 float64 `json:"compression_vs_float64_rows"`
}

// Stats walks every series (taking each lock briefly) and returns the
// current totals. Conservation invariant when nothing has been evicted:
// Retained == Appended + Loaded.
func (s *Store) Stats() Stats {
	st := Stats{
		Series:         int(s.seriesN.Load()),
		Appended:       s.appended.Load(),
		Loaded:         s.loadedN.Load(),
		TruncatedBytes: s.truncated,
		SealedSamples:  s.sealedN.Load(),
		SealedBytes:    s.sealedB.Load(),
		DroppedSamples: s.droppedN.Load(),
		IntChunks:      s.intChunks.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		handles := make([]*Series, 0, len(sh.series))
		for _, sr := range sh.series {
			handles = append(handles, sr)
		}
		sh.mu.RUnlock()
		for _, sr := range handles {
			sr.mu.Lock()
			st.Retained += uint64(sr.n)
			if list := sr.sealed.Load(); list != nil {
				for _, c := range list.chunks {
					st.Retained += uint64(c.Count)
				}
			}
			sr.mu.Unlock()
		}
	}
	if st.SealedSamples > 0 {
		st.BytesPerSample = float64(st.SealedBytes) / float64(st.SealedSamples)
		st.NaiveBytes = 16 * st.SealedSamples
		st.CompressionVs16 = float64(st.NaiveBytes) / float64(st.SealedBytes)
	}
	return st
}

// chunkList is the immutable sealed-chunk view published per series.
type chunkList struct {
	chunks []*Chunk
}

// Series is one append stream. Appends lock the series mutex, write two
// array slots, and return; sealing (every chunkSamples appends) encodes
// the buffer and publishes a fresh immutable chunk list, so the hot path
// allocates only when it seals — bounded amortized cost, pinned by test.
type Series struct {
	st  *Store
	Key SeriesKey
	id  uint32

	mu      sync.Mutex
	ts      []int64 // hot buffer, fixed capacity, reused in place
	vals    []float64
	n       int
	firstTS int64
	lastTS  int64
	total   uint64

	sealed atomic.Pointer[chunkList]
}

// Append records one sample. Timestamps must be non-decreasing per
// series; an earlier timestamp is clamped to the latest one seen (the
// FTDC contract — capture order is the order of record).
func (sr *Series) Append(ts int64, v float64) {
	sr.mu.Lock()
	if sr.total > 0 && ts < sr.lastTS {
		ts = sr.lastTS
	}
	if sr.n == len(sr.ts) {
		sr.seal()
	}
	if sr.n == 0 && sr.total == 0 {
		sr.firstTS = ts
	}
	sr.ts[sr.n] = ts
	sr.vals[sr.n] = v
	sr.n++
	sr.lastTS = ts
	sr.total++
	sr.mu.Unlock()
	sr.st.appended.Add(1)
}

// seal encodes the hot buffer into an immutable chunk and publishes it.
// Caller holds sr.mu and guarantees sr.n > 0.
func (sr *Series) seal() {
	c, err := EncodeChunk(sr.ts[:sr.n], sr.vals[:sr.n])
	if err != nil {
		panic(fmt.Sprintf("tsdb: seal: %v", err)) // unreachable: n > 0
	}
	old := sr.sealed.Load()
	var chunks []*Chunk
	if old != nil {
		chunks = old.chunks
	}
	next := make([]*Chunk, 0, len(chunks)+1)
	next = append(next, chunks...)
	next = append(next, c)
	sr.sealed.Store(&chunkList{chunks: sr.retain(next)})
	sr.st.sealedN.Add(uint64(c.Count))
	sr.st.sealedB.Add(uint64(len(c.data)))
	if c.data[2] == encIntDelta {
		sr.st.intChunks.Add(1)
	}
	if sr.st.disk != nil {
		sr.st.disk.writeChunk(sr.id, sr.Key, c.data)
	}
	sr.n = 0
}

// retain applies the maxChunks ring to a prospective sealed list,
// accounting every evicted sample in droppedN. Caller holds sr.mu and
// owns the slice.
func (sr *Series) retain(chunks []*Chunk) []*Chunk {
	if len(chunks) > maxChunks {
		for _, evicted := range chunks[:len(chunks)-maxChunks] {
			sr.st.droppedN.Add(uint64(evicted.Count))
		}
		chunks = chunks[len(chunks)-maxChunks:]
	}
	return chunks
}

// load installs samples read back from disk segments as sealed chunks,
// without echoing them to the writer (they are already on disk). It
// runs during New, before the store is shared, but locks anyway.
func (sr *Series) load(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	size := len(sr.ts)
	old := sr.sealed.Load()
	var chunks []*Chunk
	if old != nil {
		chunks = append(chunks, old.chunks...)
	}
	ts := make([]int64, 0, size)
	vals := make([]float64, 0, size)
	last := int64(math.MinInt64)
	for i := 0; i < len(samples); i += size {
		end := i + size
		if end > len(samples) {
			end = len(samples)
		}
		ts, vals = ts[:0], vals[:0]
		for _, smp := range samples[i:end] {
			// Re-impose the append-path clamp: per-series order was
			// non-decreasing when written, but be safe against
			// hand-edited or mixed segment directories.
			if smp.TS < last {
				smp.TS = last
			}
			last = smp.TS
			ts = append(ts, smp.TS)
			vals = append(vals, smp.V)
		}
		c, err := EncodeChunk(ts, vals)
		if err != nil {
			continue // unreachable: end > i
		}
		chunks = append(chunks, c)
	}
	if sr.total == 0 {
		sr.firstTS = samples[0].TS
	}
	if last > sr.lastTS {
		sr.lastTS = last
	}
	sr.total += uint64(len(samples))
	sr.st.loadedN.Add(uint64(len(samples)))
	sr.sealed.Store(&chunkList{chunks: sr.retain(chunks)})
}

// Seal forces the pending hot samples into a sealed chunk (a no-op when
// the hot buffer is empty). Benchmarks call it so bytes/sample reflects
// every appended sample; the backend calls it on shutdown so the disk
// segments carry the tail.
func (sr *Series) Seal() {
	sr.mu.Lock()
	if sr.n > 0 {
		sr.seal()
	}
	sr.mu.Unlock()
}

// SealAll force-seals every series' pending samples.
func (s *Store) SealAll() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		handles := make([]*Series, 0, len(sh.series))
		for _, sr := range sh.series {
			handles = append(handles, sr)
		}
		sh.mu.RUnlock()
		for _, sr := range handles {
			sr.Seal()
		}
	}
}

// snapshot captures a consistent view for a query: the sealed list and a
// copy of the hot tail, under one brief lock so a concurrent seal can
// neither hide nor double-count samples.
func (sr *Series) snapshot(hot []Sample) (*chunkList, []Sample) {
	sr.mu.Lock()
	list := sr.sealed.Load()
	for i := 0; i < sr.n; i++ {
		hot = append(hot, Sample{TS: sr.ts[i], V: sr.vals[i]})
	}
	sr.mu.Unlock()
	return list, hot
}

// QueryRaw returns the retained samples with from <= TS <= to in append
// order, bit-identical to what was appended. Sealed chunks outside the
// window are pruned by their aggregates without decoding.
func (sr *Series) QueryRaw(from, to int64) ([]Sample, error) {
	hot := make([]Sample, 0, len(sr.ts))
	list, hot := sr.snapshot(hot)
	var out []Sample
	scratch := make([]Sample, 0, len(sr.ts))
	if list != nil {
		for _, c := range list.chunks {
			if c.MaxTS < from || c.MinTS > to {
				continue
			}
			scratch = scratch[:0]
			var err error
			scratch, err = c.Decode(scratch)
			if err != nil {
				return nil, err
			}
			for _, smp := range scratch {
				if smp.TS >= from && smp.TS <= to {
					out = append(out, smp)
				}
			}
		}
	}
	for _, smp := range hot {
		if smp.TS >= from && smp.TS <= to {
			out = append(out, smp)
		}
	}
	return out, nil
}

// Bucket is one downsampled interval: [TS, TS+step) in the query's
// bucket grid. Min/Max skip NaN samples; Mean is Sum/Count over the
// bucket's samples in append order; Last is the final sample.
type Bucket struct {
	TS    int64   `json:"t"`
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
}

// QueryBuckets downsamples the window into step-wide buckets aligned to
// from; empty buckets are omitted. The aggregation is defined sample by
// sample in append order (exactly what a brute-force pass over QueryRaw
// computes — pinned by test), so downsampled reads are a pure function
// of the raw ones.
func (sr *Series) QueryBuckets(from, to, step int64) ([]Bucket, error) {
	if step <= 0 {
		return nil, fmt.Errorf("tsdb: bucket step must be positive")
	}
	raw, err := sr.QueryRaw(from, to)
	if err != nil {
		return nil, err
	}
	return Downsample(raw, from, step), nil
}

// Downsample buckets samples (sorted by TS) into step-wide intervals
// aligned to origin. It is exported as the reference aggregation: the
// query path and the test-suite brute force share it by construction.
func Downsample(samples []Sample, origin, step int64) []Bucket {
	var out []Bucket
	var cur *Bucket
	var curIdx int64
	var sum float64
	for _, smp := range samples {
		idx := (smp.TS - origin) / step
		if cur == nil || idx != curIdx {
			if cur != nil {
				cur.Mean = sum / float64(cur.Count)
			}
			out = append(out, Bucket{TS: origin + idx*step, Min: math.NaN(), Max: math.NaN()})
			cur = &out[len(out)-1]
			curIdx = idx
			sum = 0
		}
		cur.Count++
		cur.Last = smp.V
		sum += smp.V
		if !math.IsNaN(smp.V) {
			if math.IsNaN(cur.Min) || smp.V < cur.Min {
				cur.Min = smp.V
			}
			if math.IsNaN(cur.Max) || smp.V > cur.Max {
				cur.Max = smp.V
			}
		}
	}
	if cur != nil {
		cur.Mean = sum / float64(cur.Count)
	}
	return out
}
