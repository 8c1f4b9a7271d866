package tsdb

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hawccc/internal/obs"
)

// DefaultSampleInterval is the capture cadence when SamplerConfig leaves
// Interval zero — the FTDC-style "one diagnostic document per second".
const DefaultSampleInterval = time.Second

const (
	// poleLabel names the label whose numeric value routes a series to a
	// pole's history. Series without it are stored under pole 0 —
	// process-wide diagnostics.
	poleLabel = "pole"
	// sampledQuantile is the histogram quantile captured alongside count
	// and sum, as sub-series ":p99".
	sampledQuantile = 0.99
)

// SamplerConfig parameterizes a Sampler.
type SamplerConfig struct {
	// Interval is the capture cadence (0 selects DefaultSampleInterval).
	Interval time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Sampler periodically captures every instrument of an obs.Registry into
// the store: counters and gauges as one series each, histograms as
// count/sum/quantile sub-series. It reads instruments through the typed
// Registry.EachSeries walk — no Prometheus text is rendered or parsed —
// and caches the Series handles per instrument, so a steady-state tick
// does no map-building beyond first sight of a series.
type Sampler struct {
	st  *Store
	reg *obs.Registry
	cfg SamplerConfig

	// cache keys on the instrument pointer: instruments are create-once
	// in a registry, so pointer identity is series identity.
	cache map[any]*capturedSeries

	ticks    atomic.Uint64
	captured atomic.Uint64
}

// capturedSeries is the store-side handle set for one instrument.
type capturedSeries struct {
	value *Series // counter or gauge
	count *Series // histogram observation count
	sum   *Series // histogram observation sum
	quant *Series // histogram quantile
}

// NewSampler builds a sampler over reg writing into st.
func NewSampler(st *Store, reg *obs.Registry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Sampler{st: st, reg: reg, cfg: cfg, cache: make(map[any]*capturedSeries)}
}

// seriesFor resolves (and caches) the store handles for one registry
// series: the pole comes from the "pole" label when it parses as a
// uint32, and the store-side name is the metric name plus any remaining
// labels rendered in canonical sorted order.
func (s *Sampler) seriesFor(si obs.SeriesInfo) *capturedSeries {
	var key any
	switch {
	case si.Counter != nil:
		key = si.Counter
	case si.Gauge != nil:
		key = si.Gauge
	default:
		key = si.Histogram
	}
	if cs, ok := s.cache[key]; ok {
		return cs
	}

	pole := uint32(0)
	var b strings.Builder
	b.WriteString(si.Name)
	for _, l := range si.Labels {
		if l.Key == poleLabel {
			if id, err := strconv.ParseUint(l.Value, 10, 32); err == nil {
				pole = uint32(id)
				continue
			}
		}
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	name := b.String()

	cs := &capturedSeries{}
	if si.Histogram != nil {
		cs.count = s.st.Series(pole, name+":count")
		cs.sum = s.st.Series(pole, name+":sum")
		cs.quant = s.st.Series(pole, name+":p99")
	} else {
		cs.value = s.st.Series(pole, name)
	}
	s.cache[key] = cs
	return cs
}

// SampleOnce captures one tick and returns the samples appended. It is
// not safe for concurrent use with itself or Run (the handle cache is
// unsynchronized by design — one capture goroutine, like one FTDC
// thread); it is safe against concurrent appends and queries.
func (s *Sampler) SampleOnce() int {
	now := s.cfg.Now().UnixNano()
	appended := 0
	s.reg.EachSeries(func(si obs.SeriesInfo) {
		cs := s.seriesFor(si)
		switch {
		case si.Counter != nil:
			cs.value.Append(now, float64(si.Counter.Value()))
			appended++
		case si.Gauge != nil:
			cs.value.Append(now, si.Gauge.Value())
			appended++
		case si.Histogram != nil:
			snap := si.Histogram.Snapshot()
			cs.count.Append(now, float64(snap.Count))
			cs.sum.Append(now, snap.Sum)
			cs.quant.Append(now, snap.Quantile(sampledQuantile))
			appended += 3
		}
	})
	s.ticks.Add(1)
	s.captured.Add(uint64(appended))
	return appended
}

// Run captures on the configured interval until ctx is done, then takes
// one final sample so the captured history covers the full run.
func (s *Sampler) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.SampleOnce()
			return
		case <-t.C:
			s.SampleOnce()
		}
	}
}

// Ticks returns how many capture ticks have run.
func (s *Sampler) Ticks() uint64 { return s.ticks.Load() }

// Captured returns the lifetime samples the sampler has appended.
func (s *Sampler) Captured() uint64 { return s.captured.Load() }
