package tsdb

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// small makes sr seal every n samples instead of every chunkSamples, so
// a test reaches seals and chunk boundaries in a few appends. Call it
// before the series' first append.
func small(sr *Series, n int) *Series {
	sr.ts, sr.vals = sr.ts[:n], sr.vals[:n]
	return sr
}

func sameSamples(t *testing.T, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].TS != want[i].TS || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("sample %d: (%d, %016x), want (%d, %016x)",
				i, got[i].TS, math.Float64bits(got[i].V), want[i].TS, math.Float64bits(want[i].V))
		}
	}
}

// TestQueryRawBitExact appends a series spanning many sealed chunks plus
// a hot tail and demands QueryRaw return every sample bit-identically —
// the acceptance contract behind /api/history?res=raw.
func TestQueryRawBitExact(t *testing.T) {
	sr := small(MustNew(Config{}).Series(7, "count"), 16)
	rng := rand.New(rand.NewSource(11))
	var want []Sample
	ts := int64(0)
	for i := 0; i < 1000; i++ {
		ts += rng.Int63n(3_000_000_000)
		v := rng.NormFloat64() * 40
		switch i % 10 {
		case 3:
			v = math.NaN()
		case 7:
			v = math.Float64frombits(rng.Uint64())
		}
		sr.Append(ts, v)
		want = append(want, Sample{TS: ts, V: v})
	}
	got, err := sr.QueryRaw(math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, want)

	// A bounded window prunes whole chunks yet returns the exact subset.
	from, to := want[200].TS, want[700].TS
	var sub []Sample
	for _, s := range want {
		if s.TS >= from && s.TS <= to {
			sub = append(sub, s)
		}
	}
	got, err = sr.QueryRaw(from, to)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, sub)
}

func TestAppendClampsRegressingTimestamps(t *testing.T) {
	st := MustNew(Config{})
	sr := st.Series(1, "count")
	sr.Append(100, 1)
	sr.Append(50, 2) // regresses: clamped to 100
	sr.Append(150, 3)
	got, err := sr.QueryRaw(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, []Sample{{100, 1}, {100, 2}, {150, 3}})
}

// bruteBuckets is the independent downsampling reference: a direct
// translation of the Bucket definition, sharing no code with the store.
func bruteBuckets(samples []Sample, origin, step int64) []Bucket {
	m := map[int64]*Bucket{}
	var order []int64
	sums := map[int64]float64{}
	for _, s := range samples {
		idx := (s.TS - origin) / step
		b, ok := m[idx]
		if !ok {
			b = &Bucket{TS: origin + idx*step, Min: math.NaN(), Max: math.NaN()}
			m[idx] = b
			order = append(order, idx)
		}
		b.Count++
		b.Last = s.V
		sums[idx] += s.V
		if !math.IsNaN(s.V) {
			if math.IsNaN(b.Min) || s.V < b.Min {
				b.Min = s.V
			}
			if math.IsNaN(b.Max) || s.V > b.Max {
				b.Max = s.V
			}
		}
	}
	out := make([]Bucket, 0, len(order))
	for _, idx := range order {
		b := *m[idx]
		b.Mean = sums[idx] / float64(b.Count)
		out = append(out, b)
	}
	return out
}

func TestQueryBucketsMatchesBruteForce(t *testing.T) {
	sr := small(MustNew(Config{}).Series(9, "pole_temp_c"), 32)
	rng := rand.New(rand.NewSource(5))
	ts := int64(1_000_000)
	var raw []Sample
	for i := 0; i < 2000; i++ {
		ts += rng.Int63n(800_000_000)
		v := 20 + 10*math.Sin(float64(i)/50) + rng.Float64()
		if i%97 == 0 {
			v = math.NaN()
		}
		sr.Append(ts, v)
		raw = append(raw, Sample{TS: ts, V: v})
	}
	for _, step := range []int64{1_000_000_000, 7_777_777, 60_000_000_000} {
		got, err := sr.QueryBuckets(0, math.MaxInt64, step)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteBuckets(raw, 0, step)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d buckets, want %d", step, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.TS != w.TS || g.Count != w.Count ||
				math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
				math.Float64bits(g.Max) != math.Float64bits(w.Max) ||
				math.Float64bits(g.Mean) != math.Float64bits(w.Mean) ||
				math.Float64bits(g.Last) != math.Float64bits(w.Last) {
				t.Fatalf("step %d bucket %d: %+v, want %+v", step, i, g, w)
			}
		}
	}
	if _, err := sr.QueryBuckets(0, 1, 0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestStatsConservation(t *testing.T) {
	st := MustNew(Config{})
	for pole := uint32(1); pole <= 5; pole++ {
		sr := small(st.Series(pole, "count"), 8)
		for i := 0; i < 100; i++ {
			sr.Append(int64(i)*1_000_000_000, float64(i))
		}
	}
	stats := st.Stats()
	if stats.Series != 5 {
		t.Errorf("series = %d, want 5", stats.Series)
	}
	if stats.Appended != 500 || stats.Retained != 500 {
		t.Errorf("appended/retained = %d/%d, want 500/500 (all samples conserved)", stats.Appended, stats.Retained)
	}
	if stats.DroppedSamples != 0 {
		t.Errorf("dropped = %d, want 0", stats.DroppedSamples)
	}
	// Sealing happens on the append after the buffer fills: seals fire at
	// appends 9, 17, …, 97 — twelve chunks of 8, so 96 sealed and 4 hot
	// per series.
	if stats.SealedSamples != 480 {
		t.Errorf("sealed = %d, want 480", stats.SealedSamples)
	}
	// 8-sample chunks amortize the 19-byte chunk header poorly — the
	// production chunkSamples of 512 is what TestStatsConservationSeriesMix
	// holds to ≥8x — but even these tiny chunks must beat 16-byte rows.
	if stats.BytesPerSample <= 0 || stats.CompressionVs16 < 3 {
		t.Errorf("bytes/sample %.2f, compression %.1fx — regular integral series should compress well",
			stats.BytesPerSample, stats.CompressionVs16)
	}
}

// TestStatsConservationSeriesMix appends the four per-pole series the
// backend records — integral count and clusters, whole-µs edge latency,
// 0.25 °C-quantized compartment temperature — at the production chunk
// size and requires every sample conserved and the mix to seal at ≥8x
// under naive 16-byte (int64, float64) rows.
func TestStatsConservationSeriesMix(t *testing.T) {
	const poles, rounds = 8, 2 * chunkSamples
	count := func(pole uint32, round int) float64 {
		wave := 3 * math.Sin(2*math.Pi*float64(round)/16+float64(pole%16)/16*2*math.Pi)
		c := 2 + float64(pole%7) + wave + float64((int(pole)*31+round*17)%3)
		return math.Floor(math.Max(c, 0))
	}
	st := MustNew(Config{})
	for pole := uint32(1); pole <= poles; pole++ {
		cnt, cl := st.Series(pole, "count"), st.Series(pole, "clusters")
		lat, temp := st.Series(pole, "edge_latency_us"), st.Series(pole, "pole_temp_c")
		for round := 0; round < rounds; round++ {
			ts := int64(round) * 1_000_000_000
			c := count(pole, round)
			cnt.Append(ts, c)
			cl.Append(ts, math.Floor(c/3))
			lat.Append(ts, float64(900+(int(pole)*13+round*7)%120))
			diurnal := 36 + 8*math.Sin(2*math.Pi*float64(round)/2048+float64(pole%8))
			temp.Append(ts, math.Round(diurnal*4)/4)
		}
	}
	st.SealAll()
	stats := st.Stats()
	if want := uint64(poles * 4 * rounds); stats.Appended != want || stats.Retained != stats.Appended {
		t.Errorf("appended/retained = %d/%d, want %d/%d", stats.Appended, stats.Retained, want, want)
	}
	if stats.DroppedSamples != 0 {
		t.Errorf("dropped = %d, want 0", stats.DroppedSamples)
	}
	if stats.CompressionVs16 < 8 {
		t.Errorf("compression %.1fx (%.2f bytes/sample), want ≥ 8x on the backend's series mix",
			stats.CompressionVs16, stats.BytesPerSample)
	}
}

// TestRingEvictionAccounting appends past the ring at the production
// sizes: two chunks more than maxChunks, plus a hot tail of 4.
func TestRingEvictionAccounting(t *testing.T) {
	st := MustNew(Config{})
	sr := st.Series(1, "count")
	n := (maxChunks+2)*chunkSamples + 4
	for i := 0; i < n; i++ {
		sr.Append(int64(i), float64(i))
	}
	// Seals fire on the append after each fill, so maxChunks+2 chunks are
	// sealed and 4 samples are hot. The ring keeps the newest maxChunks,
	// so the first two chunks were evicted.
	stats := st.Stats()
	if want := uint64(2 * chunkSamples); stats.DroppedSamples != want {
		t.Errorf("dropped = %d, want %d", stats.DroppedSamples, want)
	}
	if stats.Appended != uint64(n) || stats.Retained != uint64(n-2*chunkSamples) {
		t.Errorf("appended/retained = %d/%d, want %d/%d", stats.Appended, stats.Retained, n, n-2*chunkSamples)
	}
	got, err := sr.QueryRaw(0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Sample, 0, n-2*chunkSamples)
	for i := 2 * chunkSamples; i < n; i++ {
		want = append(want, Sample{TS: int64(i), V: float64(i)})
	}
	sameSamples(t, got, want)
}

func TestPoleSeriesListing(t *testing.T) {
	st := MustNew(Config{})
	st.Append(3, "count", 10, 1)
	st.Append(3, "count", 20, 2)
	st.Append(3, "ambient_c", 15, 21.5)
	st.Append(4, "count", 10, 1) // other pole, must not appear
	metas := st.PoleSeries(3)
	if len(metas) != 2 {
		t.Fatalf("%d series, want 2", len(metas))
	}
	if metas[0].Name != "ambient_c" || metas[1].Name != "count" {
		t.Errorf("names %q, %q — want ambient_c, count (sorted)", metas[0].Name, metas[1].Name)
	}
	if metas[1].Samples != 2 || metas[1].FirstTS != 10 || metas[1].LastTS != 20 {
		t.Errorf("count meta %+v", metas[1])
	}
}

// TestConcurrentAppendQuery races appenders against raw and bucketed
// readers and the stats walk; under -race this is the memory-model proof
// that historical reads never tear the append path.
func TestConcurrentAppendQuery(t *testing.T) {
	st := MustNew(Config{})
	const (
		writers = 4
		perPole = 2000
	)
	for w := 0; w < writers; w++ {
		small(st.Series(uint32(w+1), "count"), 32)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(pole uint32) {
			defer wg.Done()
			sr := st.Series(pole, "count")
			for i := 0; i < perPole; i++ {
				sr.Append(int64(i)*1_000_000, float64(i))
			}
		}(uint32(w + 1))
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sr := st.Series(uint32(r+1), "count")
				raw, err := sr.QueryRaw(0, math.MaxInt64)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(raw); i++ {
					if raw[i].V != raw[i-1].V+1 {
						t.Errorf("reader saw torn sequence at %d: %v after %v", i, raw[i].V, raw[i-1].V)
						return
					}
				}
				if _, err := sr.QueryBuckets(0, math.MaxInt64, 10_000_000); err != nil {
					t.Error(err)
					return
				}
				st.Stats()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	stats := st.Stats()
	if stats.Appended != writers*perPole || stats.Retained != writers*perPole {
		t.Fatalf("appended/retained = %d/%d, want %d each", stats.Appended, stats.Retained, writers*perPole)
	}
}

// TestAppendSteadyStateAllocs is the hot-path allocation gate: an append
// that lands in the hot buffer allocates nothing at all, and across many
// seals the amortized cost stays under one allocation per sample.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory allocates; gate runs in non-race CI job")
	}
	sr := MustNew(Config{}).Series(1, "count")
	ts := int64(0)
	// AllocsPerRun adds a warm-up call: chunkSamples appends fill the
	// buffer without sealing it.
	if allocs := testing.AllocsPerRun(chunkSamples-1, func() {
		ts += 1_000_000
		sr.Append(ts, 5)
	}); allocs != 0 {
		t.Errorf("in-buffer append allocated %.2f objects/op, want 0", allocs)
	}

	sr2 := MustNew(Config{}).Series(1, "count")
	ts = 0
	if allocs := testing.AllocsPerRun(100_000, func() {
		ts += 1_000_000
		sr2.Append(ts, float64(ts%7))
	}); allocs > 0.5 {
		t.Errorf("append across seals amortized to %.3f allocs/op, want <= 0.5", allocs)
	}
}

func TestSealAllAndForceSeal(t *testing.T) {
	st := MustNew(Config{})
	sr := st.Series(1, "count")
	for i := 0; i < 10; i++ {
		sr.Append(int64(i), float64(i))
	}
	if got := st.Stats().SealedSamples; got != 0 {
		t.Fatalf("sealed %d before force-seal, want 0", got)
	}
	st.SealAll()
	if got := st.Stats().SealedSamples; got != 10 {
		t.Fatalf("sealed %d after SealAll, want 10", got)
	}
	sr.Seal() // empty hot buffer: no-op
	if got := st.Stats().SealedSamples; got != 10 {
		t.Fatalf("sealed %d after empty Seal, want 10", got)
	}
	got, err := sr.QueryRaw(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("%d samples after seal, want 10", len(got))
	}
}

func TestLookupAndSharding(t *testing.T) {
	st := MustNew(Config{})
	if _, ok := st.Lookup(1, "count"); ok {
		t.Error("lookup invented a series")
	}
	a := st.Series(1, "count")
	b := st.Series(1, "count")
	if a != b {
		t.Error("Series returned distinct handles for one key")
	}
	if got, ok := st.Lookup(1, "count"); !ok || got != a {
		t.Error("Lookup did not find the created series")
	}
	if st.Series(2, "count") == a {
		t.Error("distinct poles shared a handle")
	}
}
