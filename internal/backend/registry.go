package backend

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the registry shard count. 64 shards keep the
// probability of two concurrently reporting poles colliding on one lock
// low even at 10k-pole fleets, while a collect still takes only 64 locks
// to reach every row written since the last one. A power of two, so
// shard selection is a mask, not a modulo.
const DefaultShards = 64

// registry is the sharded pole-state store behind the backend: pole IDs
// hash to one of N shards, each with its own lock, so concurrent report
// streams from different poles almost never contend. Reads for dashboards
// never touch these locks at all — they are served from the immutable
// snapshots the Server publishes when rows change (snapshot.go).
type registry struct {
	shards []shard
	mask   uint32

	// lockAcquisitions counts every shard-lock acquisition. The query
	// API's contract is that it acquires none; the test suite asserts a
	// zero delta across a read burst.
	lockAcquisitions atomic.Uint64
}

// shard is one lock's worth of pole state.
type shard struct {
	mu    sync.Mutex
	poles map[uint32]*poleEntry
	// dirty lists the entries written since the last collect, each once
	// (poleEntry.dirty says whether an entry is on it). collect empties
	// it in place, so at steady state a write appends within capacity.
	dirty []*poleEntry
}

// poleEntry pairs a pole's aggregates with its cached history-series
// handles so the report path does no store lookups.
type poleEntry struct {
	stats PoleStats
	hist  *poleHist
	dirty bool // on the shard's dirty list
}

// newRegistry builds a registry with DefaultShards shards.
func newRegistry() *registry {
	r := &registry{shards: make([]shard, DefaultShards), mask: DefaultShards - 1}
	for i := range r.shards {
		r.shards[i].poles = make(map[uint32]*poleEntry)
	}
	return r
}

// mixPoleID is a 32-bit finalizer (murmur3-style) so sequential pole IDs
// — the common deployment numbering — spread across shards instead of
// marching through them in lockstep.
func mixPoleID(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// shardIndex returns the shard an ID hashes to.
func (r *registry) shardIndex(id uint32) uint32 { return mixPoleID(id) & r.mask }

// withPole runs f with the pole's aggregate record under the owning
// shard's lock, creating the record and its history handles on first
// sight, and returns the handles so the caller appends to history after
// the lock is released. newHist is only invoked for new poles, inside the
// critical section, so two racing first reports cannot double-register
// history series.
func (r *registry) withPole(id uint32, newHist func(uint32) *poleHist, f func(*PoleStats)) *poleHist {
	sh := &r.shards[r.shardIndex(id)]
	r.lockAcquisitions.Add(1)
	sh.mu.Lock()
	e, ok := sh.poles[id]
	if !ok {
		e = &poleEntry{stats: PoleStats{PoleID: id}, hist: newHist(id)}
		sh.poles[id] = e
	}
	f(&e.stats)
	if !e.dirty {
		e.dirty = true
		sh.dirty = append(sh.dirty, e)
	}
	sh.mu.Unlock()
	return e.hist
}

// collect appends to out the aggregates of every pole written since the
// last collect and marks them clean, one shard lock at a time: the cost
// is the rows that changed plus one lock per shard, not the fleet. The
// result is per-pole consistent (each PoleStats is copied atomically
// under its shard lock); cross-shard skew is bounded by the walk itself
// and absorbed by the snapshot model: campus totals are derived from the
// snapshot's own rows, never from live shard state, so a snapshot can
// lag but can never be torn. A row written after its shard was visited
// is on the dirty list again for the next collect.
func (r *registry) collect(out []PoleStats) []PoleStats {
	for i := range r.shards {
		sh := &r.shards[i]
		r.lockAcquisitions.Add(1)
		sh.mu.Lock()
		for _, e := range sh.dirty {
			out = append(out, e.stats)
			e.dirty = false
		}
		sh.dirty = sh.dirty[:0]
		sh.mu.Unlock()
	}
	return out
}
