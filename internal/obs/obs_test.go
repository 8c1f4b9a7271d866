package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", "frames processed")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("temp_c", "compartment temperature")
	g.Set(57.8)
	if got := g.Value(); got != 57.8 {
		t.Errorf("gauge = %g, want 57.8", got)
	}
	g.SetTime(time.Unix(100, 0))
	if got := g.Value(); got != 100 {
		t.Errorf("gauge time = %g, want 100", got)
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reports_total", "", L("pole", "1"))
	b := r.Counter("reports_total", "", L("pole", "1"))
	if a != b {
		t.Error("same name+labels should return the same counter")
	}
	other := r.Counter("reports_total", "", L("pole", "2"))
	if a == other {
		t.Error("different labels must be distinct series")
	}
	// Label order must not split series.
	x := r.Gauge("g", "", L("a", "1"), L("b", "2"))
	y := r.Gauge("g", "", L("b", "2"), L("a", "1"))
	if x != y {
		t.Error("label order should not create a new series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments should read zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot should be empty")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Error("nil registry exposition should be empty")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform over (0, 4]: 25 per unit.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Counts[0]; got != 25 {
		t.Errorf("bucket(≤1) = %d, want 25", got)
	}
	if got := s.Counts[1]; got != 25 {
		t.Errorf("bucket(≤2) = %d, want 25", got)
	}
	if got := s.Counts[2]; got != 50 {
		t.Errorf("bucket(≤4) = %d, want 50", got)
	}
	if math.Abs(s.Sum-202) > 1e-9 {
		t.Errorf("sum = %g, want 202", s.Sum)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	s := h.Snapshot()
	if s.Counts[2] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", s.Counts[2])
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{0.5, 1, 2})
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(g%3) * 0.75)
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != goroutines*each {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*each)
	}
	s := h.Snapshot()
	if s.Count != goroutines*each {
		t.Errorf("histogram count = %d, want %d", s.Count, goroutines*each)
	}
	var sum uint64
	for _, b := range s.Counts {
		sum += b
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", LatencyBuckets())
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%100) * 1e-4)
			i++
		}
	})
}
