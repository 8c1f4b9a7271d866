// Package tsdb is the FTDC-style time-series store behind the campus
// backend's /api/history endpoints: an append-only columnar capture of
// per-pole telemetry series (count, temperature, report latency, and the
// sampled observability instruments) in the spirit of MongoDB's
// full-time-series diagnostic capture — delta / delta-of-delta varint
// encoding with zero-run-length compression, a ring-buffer hot tier per
// series, immutable sealed chunks, and optional disk-backed segment files
// with periodic schema headers so any segment is readable on its own.
//
// The design splits cleanly into three layers:
//
//   - codec.go — the chunk binary format. A chunk is one series' worth of
//     (timestamp, float64) samples: timestamps as zigzag-varint
//     delta-of-delta, values as zigzag-varint deltas of either the int64
//     value (when every sample is integral — counts, byte totals) or the
//     raw IEEE-754 bit pattern (always exact, including NaN payloads).
//     Decoding returns the samples bit-identically: the codec never
//     rounds, scales, or truncates.
//   - store.go — the concurrent store: series handles hash to shards,
//     appends go to a fixed-size hot buffer reused in place, and every
//     chunkSamples appends the buffer seals into an immutable chunk
//     published through an atomic pointer, so historical reads never
//     block the append path.
//   - segment.go — optional persistence: sealed chunks stream to
//     size-rotated segment files; each file re-emits the schema records
//     for the series it contains before their first chunk, and a store
//     opened on the directory reads the files back.
package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Sample is one timestamped value. TS is in nanoseconds since the Unix
// epoch (the wire protocol's own timestamp unit).
type Sample struct {
	TS int64   `json:"t"`
	V  float64 `json:"v"`
}

// MaxChunkSamples bounds the sample count one chunk may claim. The store
// seals far below this; the decoder rejects larger counts so corrupted
// or adversarial payloads cannot demand unbounded allocation (zero
// run-length encoding would otherwise let a few bytes claim billions of
// samples).
const MaxChunkSamples = 1 << 20

// Chunk format constants.
const (
	chunkMagic   = 0xD7
	chunkVersion = 1

	// encBitsDelta encodes value deltas over the raw IEEE-754 bit
	// patterns — exact for every float64 including NaN and -0.
	encBitsDelta = 0
	// encIntDelta encodes value deltas over int64(v) — chosen when every
	// value in the chunk is exactly an integer (counts, cumulative
	// totals), where consecutive deltas are small and varints shrink a
	// sample to a byte or two.
	encIntDelta = 1
)

// Chunk is one sealed, immutable run of a series' samples plus the
// aggregates queries use to prune and summarize without decoding.
type Chunk struct {
	MinTS, MaxTS int64
	Count        int
	First, Last  float64
	Min, Max     float64 // over non-NaN values; NaN-only chunks keep NaN
	Sum          float64 // in append order; NaN poisons, as it should
	data         []byte
}

// zigzag maps signed deltas onto unsigned varint-friendly space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// deltaWriter emits zigzag varints with FTDC-style zero run-length
// encoding: a literal zero delta is written as the byte 0x00 followed by
// a varint count of additional zeros, so a constant series costs ~2
// bytes per run instead of one byte per sample.
type deltaWriter struct {
	buf     []byte
	zeroRun uint64
}

func (w *deltaWriter) put(d int64) {
	if d == 0 {
		w.zeroRun++
		return
	}
	w.flushZeros()
	w.buf = binary.AppendUvarint(w.buf, zigzag(d))
}

func (w *deltaWriter) flushZeros() {
	if w.zeroRun == 0 {
		return
	}
	w.buf = append(w.buf, 0x00)
	w.buf = binary.AppendUvarint(w.buf, w.zeroRun-1)
	w.zeroRun = 0
}

// deltaReader consumes the stream deltaWriter produces.
type deltaReader struct {
	buf     []byte
	zeroRun uint64
	err     error
}

func (r *deltaReader) next() int64 {
	if r.zeroRun > 0 {
		r.zeroRun--
		return 0
	}
	u, n := binary.Uvarint(r.buf)
	if n <= 0 {
		if r.err == nil {
			r.err = fmt.Errorf("tsdb: truncated delta stream")
		}
		return 0
	}
	r.buf = r.buf[n:]
	if u == 0 {
		extra, n := binary.Uvarint(r.buf)
		if n <= 0 {
			if r.err == nil {
				r.err = fmt.Errorf("tsdb: truncated zero run")
			}
			return 0
		}
		r.buf = r.buf[n:]
		r.zeroRun = extra
		return 0
	}
	return unzigzag(u)
}

// integral reports whether v is exactly representable as an int64 and
// survives the int64 round trip bit-for-bit (this excludes NaN, ±Inf,
// -0, and magnitudes beyond 2^63).
func integral(v float64) bool {
	if v != math.Trunc(v) || math.IsInf(v, 0) {
		return false
	}
	if v == 0 && math.Signbit(v) {
		return false // -0 would decode as +0
	}
	// int64 range check that stays exact at the boundary: 2^63 is
	// representable as a float64, MaxInt64 is not.
	if v < -9.223372036854775808e18 || v >= 9.223372036854775808e18 {
		return false
	}
	return math.Float64bits(float64(int64(v))) == math.Float64bits(v)
}

// EncodeChunk seals samples into a chunk. The samples may carry any
// timestamps and values (the codec is exact regardless); the store layer
// is what guarantees per-series timestamp monotonicity. Layout:
//
//	[0]     magic 0xD7
//	[1]     version 1
//	[2]     flags: bit0 = value encoding (encIntDelta / encBitsDelta)
//	uvarint count n (>= 1)
//	8 bytes ts[0], big-endian uint64(int64)
//	8 bytes Float64bits(v[0]), big-endian
//	uvarint len(timestamp stream) | the stream: zigzag varints with
//	        zero-RLE — d1 = ts[1]-ts[0], then delta-of-delta
//	value stream to end of payload: zigzag varints with zero-RLE —
//	        int64 value deltas or bit-pattern deltas per the flag
func EncodeChunk(ts []int64, vals []float64) (*Chunk, error) {
	n := len(ts)
	if n == 0 || n != len(vals) {
		return nil, fmt.Errorf("tsdb: encode %d timestamps, %d values", n, len(vals))
	}
	enc := encIntDelta
	for _, v := range vals {
		if !integral(v) {
			enc = encBitsDelta
			break
		}
	}

	buf := make([]byte, 0, 32+n/2)
	buf = append(buf, chunkMagic, chunkVersion, byte(enc))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.BigEndian.AppendUint64(buf, uint64(ts[0]))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(vals[0]))

	var tw deltaWriter
	prevDelta := int64(0)
	for i := 1; i < n; i++ {
		d := ts[i] - ts[i-1]
		tw.put(d - prevDelta)
		prevDelta = d
	}
	tw.flushZeros()
	buf = binary.AppendUvarint(buf, uint64(len(tw.buf)))
	buf = append(buf, tw.buf...)

	var vw deltaWriter
	if enc == encIntDelta {
		prev := int64(vals[0])
		for i := 1; i < n; i++ {
			cur := int64(vals[i])
			vw.put(cur - prev)
			prev = cur
		}
	} else {
		prev := math.Float64bits(vals[0])
		for i := 1; i < n; i++ {
			cur := math.Float64bits(vals[i])
			// Wrapping subtraction on the bit patterns; decode re-adds.
			vw.put(int64(cur - prev))
			prev = cur
		}
	}
	vw.flushZeros()
	buf = append(buf, vw.buf...)

	c := &Chunk{data: buf, Count: n, First: vals[0], Last: vals[n-1]}
	c.MinTS, c.MaxTS = ts[0], ts[0]
	c.Min, c.Max = math.NaN(), math.NaN()
	for i := 0; i < n; i++ {
		if ts[i] < c.MinTS {
			c.MinTS = ts[i]
		}
		if ts[i] > c.MaxTS {
			c.MaxTS = ts[i]
		}
		v := vals[i]
		c.Sum += v
		if !math.IsNaN(v) {
			if math.IsNaN(c.Min) || v < c.Min {
				c.Min = v
			}
			if math.IsNaN(c.Max) || v > c.Max {
				c.Max = v
			}
		}
	}
	return c, nil
}

// DecodeChunkData decodes an encoded chunk payload, appending the
// samples to dst (which may be nil). The returned samples are
// bit-identical to what EncodeChunk was given.
func DecodeChunkData(data []byte, dst []Sample) ([]Sample, error) {
	if len(data) < 3+1+16 {
		return dst, fmt.Errorf("tsdb: chunk too short (%d bytes)", len(data))
	}
	if data[0] != chunkMagic {
		return dst, fmt.Errorf("tsdb: bad chunk magic 0x%02x", data[0])
	}
	if data[1] != chunkVersion {
		return dst, fmt.Errorf("tsdb: unsupported chunk version %d", data[1])
	}
	enc := int(data[2])
	if enc != encIntDelta && enc != encBitsDelta {
		return dst, fmt.Errorf("tsdb: unknown value encoding %d", enc)
	}
	p := data[3:]
	n64, sz := binary.Uvarint(p)
	if sz <= 0 || n64 == 0 || n64 > MaxChunkSamples {
		return dst, fmt.Errorf("tsdb: bad chunk count")
	}
	n := int(n64)
	p = p[sz:]
	if len(p) < 16 {
		return dst, fmt.Errorf("tsdb: truncated chunk header")
	}
	ts0 := int64(binary.BigEndian.Uint64(p))
	v0 := binary.BigEndian.Uint64(p[8:])
	p = p[16:]

	tsLen, sz := binary.Uvarint(p)
	if sz <= 0 || tsLen > uint64(len(p)-sz) {
		return dst, fmt.Errorf("tsdb: bad timestamp stream length")
	}
	p = p[sz:]
	tr := deltaReader{buf: p[:tsLen]}
	vr := deltaReader{buf: p[tsLen:]}

	if cap(dst)-len(dst) < n {
		grown := make([]Sample, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, Sample{TS: ts0, V: math.Float64frombits(v0)})
	prevTS, prevDelta := ts0, int64(0)
	switch enc {
	case encIntDelta:
		prev := int64(math.Float64frombits(v0))
		for i := 1; i < n; i++ {
			prevDelta += tr.next()
			prevTS += prevDelta
			prev += vr.next()
			dst = append(dst, Sample{TS: prevTS, V: float64(prev)})
		}
	default:
		prev := v0
		for i := 1; i < n; i++ {
			prevDelta += tr.next()
			prevTS += prevDelta
			prev += uint64(vr.next())
			dst = append(dst, Sample{TS: prevTS, V: math.Float64frombits(prev)})
		}
	}
	if tr.err != nil {
		return dst, tr.err
	}
	if vr.err != nil {
		return dst, vr.err
	}
	return dst, nil
}

// Decode appends the chunk's samples to dst.
func (c *Chunk) Decode(dst []Sample) ([]Sample, error) {
	return DecodeChunkData(c.data, dst)
}
