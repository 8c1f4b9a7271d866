package tsdb

import (
	"math"
	"math/rand"
	"testing"
)

// roundTrip encodes the series and demands a bit-identical decode: every
// timestamp equal, every value equal as an IEEE-754 bit pattern (so NaN
// payloads, -0, and last-ulp differences all count).
func roundTrip(t *testing.T, ts []int64, vals []float64) *Chunk {
	t.Helper()
	c, err := EncodeChunk(ts, vals)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(ts))
	}
	for i := range got {
		if got[i].TS != ts[i] {
			t.Fatalf("sample %d: ts %d, want %d", i, got[i].TS, ts[i])
		}
		if math.Float64bits(got[i].V) != math.Float64bits(vals[i]) {
			t.Fatalf("sample %d: value bits %016x, want %016x (%v vs %v)",
				i, math.Float64bits(got[i].V), math.Float64bits(vals[i]), got[i].V, vals[i])
		}
	}
	return c
}

func TestChunkRoundTripKnownShapes(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		ts   []int64
		vals []float64
	}{
		{"single", []int64{42}, []float64{3.5}},
		{"constant-counts", []int64{0, 1000, 2000, 3000}, []float64{7, 7, 7, 7}},
		{"counter-reset", []int64{0, 1, 2, 3, 4}, []float64{100, 200, 300, 0, 50}},
		{"negatives", []int64{-5, -4, -3}, []float64{-1, -2.5, -1e300}},
		{"nan-mixed", []int64{0, 1, 2, 3}, []float64{1, nan, 2, nan}},
		{"neg-zero", []int64{0, 1, 2}, []float64{0, math.Copysign(0, -1), 0}},
		{"infinities", []int64{0, 1, 2}, []float64{math.Inf(1), math.Inf(-1), 0}},
		{"extreme-ints", []int64{0, 1}, []float64{-9.007199254740992e15, 9.007199254740992e15}},
		{"irregular-ts", []int64{0, 1, 1000000000, 1000000001, 5000000000}, []float64{1, 2, 3, 4, 5}},
		{"subnormals", []int64{0, 1, 2}, []float64{5e-324, 0, -5e-324}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip(t, tc.ts, tc.vals)
		})
	}
}

// TestChunkRoundTripRandom is the property test: random series of every
// flavor the capture path produces — integral counters with resets,
// noisy gauges, constant runs, NaN dropouts — must round-trip exactly.
func TestChunkRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(700)
		ts := make([]int64, n)
		vals := make([]float64, n)
		tcur := rng.Int63n(1 << 40)
		flavor := trial % 4
		cur := float64(rng.Intn(1000))
		for i := 0; i < n; i++ {
			tcur += rng.Int63n(2_000_000_000) // up to 2s jitter, may be 0
			ts[i] = tcur
			switch flavor {
			case 0: // integral counter with occasional resets
				if rng.Intn(50) == 0 {
					cur = 0
				}
				cur += float64(rng.Intn(10))
				vals[i] = cur
			case 1: // noisy gauge
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			case 2: // constant runs with steps
				if rng.Intn(20) == 0 {
					cur = float64(rng.Intn(100))
				}
				vals[i] = cur
			default: // adversarial bit patterns incl. NaN payloads
				vals[i] = math.Float64frombits(rng.Uint64())
			}
		}
		roundTrip(t, ts, vals)
	}
}

func TestChunkAggregates(t *testing.T) {
	ts := []int64{5, 10, 2, 30} // codec does not require order; store does
	vals := []float64{4, math.NaN(), -7, 2.5}
	c := roundTrip(t, ts, vals)
	if c.MinTS != 2 || c.MaxTS != 30 {
		t.Errorf("ts range [%d,%d], want [2,30]", c.MinTS, c.MaxTS)
	}
	if c.Count != 4 || c.First != 4 || c.Last != 2.5 {
		t.Errorf("count/first/last = %d/%v/%v", c.Count, c.First, c.Last)
	}
	if c.Min != -7 || c.Max != 4 {
		t.Errorf("min/max = %v/%v, want -7/4 (NaN skipped)", c.Min, c.Max)
	}
	if !math.IsNaN(c.Sum) {
		t.Errorf("sum = %v, want NaN (NaN poisons the running sum)", c.Sum)
	}
}

func TestNaNOnlyChunkAggregates(t *testing.T) {
	c := roundTrip(t, []int64{1, 2}, []float64{math.NaN(), math.NaN()})
	if !math.IsNaN(c.Min) || !math.IsNaN(c.Max) {
		t.Errorf("min/max = %v/%v, want NaN/NaN", c.Min, c.Max)
	}
}

// TestIntegralSeriesCompression pins the point of the format: a regular
// cadence with small integer movements — exactly what per-pole counts
// look like — must beat 16-byte rows by a wide margin.
func TestIntegralSeriesCompression(t *testing.T) {
	const n = 512
	ts := make([]int64, n)
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range ts {
		ts[i] = int64(i) * 1_000_000_000 // exact 1s cadence: DoD is all zeros
		vals[i] = float64(5 + rng.Intn(4))
	}
	c := roundTrip(t, ts, vals)
	if c.data[2] != encIntDelta {
		t.Fatalf("encoding %d, want int-delta for all-integral values", c.data[2])
	}
	perSample := float64(len(c.data)) / n
	if perSample > 2 {
		t.Errorf("%.2f bytes/sample, want <= 2 for regular integral series", perSample)
	}
}

func TestConstantRunUsesZeroRLE(t *testing.T) {
	const n = 1000
	ts := make([]int64, n)
	vals := make([]float64, n)
	for i := range ts {
		ts[i] = int64(i) * 1_000_000_000
		vals[i] = 21.5 // non-integral so the bits encoding is exercised too
	}
	c := roundTrip(t, ts, vals)
	if len(c.data) > 64 {
		t.Errorf("constant series encoded to %d bytes, want <= 64 via zero-RLE", len(c.data))
	}
}

func TestEncodeChunkRejectsBadInput(t *testing.T) {
	if _, err := EncodeChunk(nil, nil); err == nil {
		t.Error("empty series encoded without error")
	}
	if _, err := EncodeChunk([]int64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths encoded without error")
	}
}

func TestDecodeChunkDataRejectsCorruption(t *testing.T) {
	c, err := EncodeChunk([]int64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	good := c.data
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:5],
		"bad-magic":   append([]byte{0x00}, good[1:]...),
		"bad-version": append([]byte{good[0], 0xFF}, good[2:]...),
		"bad-enc":     append([]byte{good[0], good[1], 0x7F}, good[3:]...),
	}
	for name, data := range cases {
		if _, err := DecodeChunkData(data, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeBoundsAllocation pins the MaxChunkSamples guard: a tiny
// payload claiming an enormous sample count must be rejected, not
// trusted with an allocation.
func TestDecodeBoundsAllocation(t *testing.T) {
	c, err := EncodeChunk([]int64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), c.data...)
	// Rewrite the count varint (offset 3) to claim 2^40 samples; the
	// original count 1 is a single byte, so splice freely.
	forged := append(data[:3:3], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	forged = append(forged, data[4:]...)
	if _, err := DecodeChunkData(forged, nil); err == nil {
		t.Fatal("decoder accepted a 2^40-sample claim from a 30-byte payload")
	}
}

// FuzzDecodeChunkData demands the decoder never panics and never
// over-allocates on arbitrary input — errors are the only acceptable
// failure mode.
func FuzzDecodeChunkData(f *testing.F) {
	if c, err := EncodeChunk([]int64{1, 2, 3}, []float64{1.5, math.NaN(), -0.0}); err == nil {
		f.Add(c.data)
	}
	if c, err := EncodeChunk([]int64{0, 1_000_000_000}, []float64{100, 101}); err == nil {
		f.Add(c.data)
	}
	f.Add([]byte{chunkMagic, chunkVersion, encIntDelta, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := DecodeChunkData(data, nil)
		if err == nil && (len(samples) == 0 || len(samples) > MaxChunkSamples) {
			t.Fatalf("successful decode returned %d samples", len(samples))
		}
	})
}

// FuzzChunkRoundTrip derives a series from the fuzz input and demands a
// bit-exact round trip: 16-byte groups become (timestamp delta, value
// bits) pairs, covering NaN payloads, ±Inf, -0, and wild deltas.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0x40, 0x45, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		ts := make([]int64, n)
		vals := make([]float64, n)
		var tcur int64
		for i := 0; i < n; i++ {
			var d, bits uint64
			for j := 0; j < 8; j++ {
				d = d<<8 | uint64(data[i*16+j])
				bits = bits<<8 | uint64(data[i*16+8+j])
			}
			tcur += int64(d % (1 << 34)) // arbitrary non-negative jitter
			ts[i] = tcur
			vals[i] = math.Float64frombits(bits)
		}
		c, err := EncodeChunk(ts, vals)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := c.Decode(nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range got {
			if got[i].TS != ts[i] || math.Float64bits(got[i].V) != math.Float64bits(vals[i]) {
				t.Fatalf("sample %d: (%d, %016x), want (%d, %016x)",
					i, got[i].TS, math.Float64bits(got[i].V), ts[i], math.Float64bits(vals[i]))
			}
		}
	})
}
