// Package obs is the low-overhead observability layer of the campus
// deployment: lock-free counters, gauges, and fixed-bucket latency
// histograms, collected into a Registry and exposed in Prometheus text
// format (expo.go) alongside net/http/pprof.
//
// The hot path is allocation-free: instruments are created once at setup
// (Registry get-or-create) and updated with single atomic operations.
// Every instrument is nil-safe — methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops — so instrumented code never branches on whether
// observability is enabled; an uninstrumented pipeline simply carries nil
// instrument pointers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" dimension on a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetTime stores t as seconds since the Unix epoch (the Prometheus
// convention for *_timestamp_seconds gauges).
func (g *Gauge) SetTime(t time.Time) {
	g.Set(float64(t.UnixNano()) / 1e9)
}

// Add shifts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observations increment one
// bucket counter atomically; the bucket layout never changes after
// creation, so the hot path is a binary search plus two atomic adds (the
// float64 sum is a CAS loop, contended only when many goroutines observe
// the same series simultaneously).
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// counts has len(bounds)+1 entries; the last is the +Inf bucket.
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// LatencyBuckets spans 50 µs to 2.5 s, covering everything from a single
// GEMM pass to a full high-density frame on a loaded pole.
func LatencyBuckets() []float64 {
	return []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5,
	}
}

// NewHistogram builds a detached histogram (not in any registry) with the
// given ascending bucket upper bounds. Registry.Histogram is the usual
// constructor; detached histograms serve internal accounting that still
// wants bucket snapshots.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records v (in the bucket unit, conventionally seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read while
// observations continue.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the (non-cumulative)
	// count for bucket i, with Counts[len(Bounds)] the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the current bucket counts. Counts are loaded bucket by
// bucket, so a snapshot taken during heavy observation may be off by the
// handful of observations in flight — fine for scraping, which is the
// only consumer.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// metricKind distinguishes family types at registration and exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument within a family.
type series struct {
	labels    string // rendered {k="v",...} or ""
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds a process's metric families. Get-or-create methods are
// safe for concurrent use; returned instruments are shared, so two
// callers asking for the same name+labels update the same series. A nil
// *Registry is valid and returns nil (no-op) instruments.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical {k="v",...} key, sorted by key so
// label order at the call site doesn't split series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup get-or-creates the series for name+labels, verifying the kind.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, create func() *series) *series {
	key := renderLabels(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.byKey[key]; ok && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := create()
	s.labels = key
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns the histogram for name+labels with the given bucket
// bounds, creating it on first use. Bounds are fixed by the first caller;
// later callers with different bounds share the original series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindHistogram, labels, func() *series {
		return &series{histogram: NewHistogram(bounds)}
	})
	return s.histogram
}
