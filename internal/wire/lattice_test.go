package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hawccc/internal/geom"
)

// buildBatch is BuildInto on a fresh batch.
func buildBatch(poleID uint32, seq uint64, clusters []geom.Cloud, scale float64) ClusterBatch {
	var b ClusterBatch
	b.BuildInto(poleID, seq, clusters, scale)
	return b
}

// The decoder below inverts EncodeClusterBatch. No production code reads
// a batch back — the pipeline dequantizes its own in-memory batch with
// AppendCloud — so it lives here as reference code: the round-trip,
// tolerance and fuzz tests are what pin the encoding the benchmark's
// wire.batch_bytes_per_frame row measures.

// maxBatchPoints bounds the points a decoded batch may claim, so a
// corrupt or hostile frame cannot make the decoder allocate gigabytes
// (a zero bit width encodes any point count in zero residual bytes).
const maxBatchPoints = MaxFrameSize

func (d *decoder) zigzag() int64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) corrupt(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// decodeAxis reads one axis of n residuals into dst, validating that
// the minimum and every reconstructed value stay on the int16 lattice.
func decodeAxis(d *decoder, dst []int16) {
	mn64 := d.zigzag()
	width := uint(d.u8())
	if d.err != nil {
		return
	}
	if mn64 < math.MinInt16 || mn64 > math.MaxInt16 {
		d.corrupt("axis minimum %d outside int16", mn64)
		return
	}
	if width > 16 {
		d.corrupt("residual width %d exceeds 16 bits", width)
		return
	}
	mn := int32(mn64)
	if width == 0 {
		for i := range dst {
			dst[i] = int16(mn)
		}
		return
	}
	raw := d.bytes((len(dst)*int(width) + 7) / 8)
	if d.err != nil {
		return
	}
	var acc uint64
	var nbits uint
	bi := 0
	mask := uint64(1)<<width - 1
	for i := range dst {
		for nbits < width {
			acc = acc<<8 | uint64(raw[bi])
			bi++
			nbits += 8
		}
		nbits -= width
		v := mn + int32(acc>>nbits&mask)
		if v > math.MaxInt16 {
			d.corrupt("residual lifts value %d off the int16 lattice", v)
			return
		}
		dst[i] = int16(v)
	}
}

// DecodeClusterBatch parses a ClusterBatch body. Decoding inverts
// EncodeClusterBatch exactly (bit-identical lattice coordinates; the
// lossy step is quantization at build time, not transport). Cluster
// and point counts are bounded before allocation so corrupt frames
// cannot exhaust memory, and every decoded coordinate is validated to
// lie on the int16 lattice.
func DecodeClusterBatch(buf []byte) (ClusterBatch, error) {
	d := decoder{buf: buf}
	b := ClusterBatch{PoleID: d.u32(), Seq: d.u64(), ModelVersion: d.u32()}
	b.Origin = geom.Point3{X: d.f64(), Y: d.f64(), Z: d.f64()}
	b.Scale = d.f64()
	if d.err == nil {
		if !(b.Scale > 0) || math.IsInf(b.Scale, 0) {
			d.corrupt("bad quant scale %v", b.Scale)
		} else if oob(b.Origin.X) || oob(b.Origin.Y) || oob(b.Origin.Z) {
			d.corrupt("non-finite batch origin")
		}
	}
	nClusters := d.u32()
	// A non-empty cluster occupies ≥ 4 bytes (its point count) plus six
	// axis header bytes; bounding on the 4 keeps empty clusters legal.
	if d.err == nil && int(nClusters) > len(d.buf)/4 {
		d.corrupt("cluster count %d exceeds frame", nClusters)
	}
	if d.err == nil {
		b.Clusters = make([]QuantCluster, nClusters)
	}
	total := 0
	for i := 0; d.err == nil && i < int(nClusters); i++ {
		n := d.u32()
		if d.err != nil {
			break
		}
		if total += int(n); total > maxBatchPoints {
			d.corrupt("batch exceeds %d points", maxBatchPoints)
			break
		}
		if n == 0 {
			continue
		}
		c := &b.Clusters[i]
		c.X = make([]int16, n)
		c.Y = make([]int16, n)
		c.Z = make([]int16, n)
		decodeAxis(&d, c.X)
		decodeAxis(&d, c.Y)
		decodeAxis(&d, c.Z)
	}
	return b, d.finish()
}

// oob reports whether a batch origin coordinate is unusable.
func oob(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// randClusters synthesizes human-scale clusters around a pole origin.
func randClusters(rng *rand.Rand, n int) []geom.Cloud {
	clusters := make([]geom.Cloud, n)
	for i := range clusters {
		cx := rng.Float64()*16 - 8
		cy := rng.Float64()*16 - 8
		pts := 5 + rng.Intn(200)
		c := make(geom.Cloud, pts)
		for j := range c {
			c[j] = geom.Point3{
				X: cx + rng.Float64()*0.6,
				Y: cy + rng.Float64()*0.6,
				Z: -2.5 + rng.Float64()*1.8,
			}
		}
		clusters[i] = c
	}
	return clusters
}

func TestClusterBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		clusters := randClusters(rng, rng.Intn(8))
		b := buildBatch(uint32(trial), uint64(trial)<<8, clusters, DefaultQuantScale)
		got, err := DecodeClusterBatch(EncodeClusterBatch(b))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(normalize(b), normalize(got)) {
			t.Fatalf("trial %d: decoded batch differs from encoded", trial)
		}
	}
}

// normalize maps empty lattice slices to nil so DeepEqual compares
// decoded batches (nil slices for empty clusters) against built ones.
func normalize(b ClusterBatch) ClusterBatch {
	for i := range b.Clusters {
		c := &b.Clusters[i]
		if len(c.X) == 0 {
			c.X, c.Y, c.Z = nil, nil, nil
		}
	}
	if len(b.Clusters) == 0 {
		b.Clusters = nil
	}
	return b
}

// TestClusterBatchTolerance pins the quantization contract: every
// dequantized coordinate is within Scale/2 of the original, at the
// default scale a non-positive scale argument selects.
func TestClusterBatchTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clusters := randClusters(rng, 6)
	b := buildBatch(1, 1, clusters, 0)
	if b.Scale != DefaultQuantScale {
		t.Fatalf("scale ≤ 0 should select DefaultQuantScale, got %g", b.Scale)
	}
	got, err := DecodeClusterBatch(EncodeClusterBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	tol := b.Scale / 2
	for i, orig := range clusters {
		var back geom.Cloud
		back = got.AppendCloud(i, back)
		if len(back) != len(orig) {
			t.Fatalf("cluster %d: %d points, want %d", i, len(back), len(orig))
		}
		for j, p := range orig {
			q := back[j]
			if math.Abs(p.X-q.X) > tol || math.Abs(p.Y-q.Y) > tol || math.Abs(p.Z-q.Z) > tol {
				t.Fatalf("cluster %d point %d: %+v recovered as %+v, tolerance %g", i, j, p, q, tol)
			}
		}
	}
}

// TestClusterBatchSaturation pins int16 clamping: coordinates farther
// than Scale·32767 from the batch origin saturate at the lattice edge
// instead of wrapping around.
func TestClusterBatchSaturation(t *testing.T) {
	far := geom.Cloud{
		{X: 0, Y: 0, Z: 0},
		{X: 1000, Y: -0.5, Z: 0.5}, // 1 km from the min corner at 2 mm scale
	}
	b := buildBatch(1, 1, []geom.Cloud{far}, DefaultQuantScale)
	c := b.Clusters[0]
	if c.X[1] != math.MaxInt16 {
		t.Fatalf("far +x should saturate at %d, got %d", math.MaxInt16, c.X[1])
	}
	if c.X[0] != 0 || c.Y[1] != 0 || c.Z[0] != 0 {
		t.Fatalf("min-corner coordinates should quantize to 0: %+v", c)
	}
	got, err := DecodeClusterBatch(EncodeClusterBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(b), normalize(got)) {
		t.Fatal("saturated batch failed to round-trip")
	}
	// The negative edge as well: a batch built with an explicit origin
	// above some points. BuildClusterBatch always uses the min corner,
	// so exercise quantize directly.
	if q := quantize(-1000, 0, DefaultQuantScale); q != math.MinInt16 {
		t.Fatalf("far -x should saturate at %d, got %d", math.MinInt16, q)
	}
}

func TestClusterBatchEmpty(t *testing.T) {
	cases := map[string][]geom.Cloud{
		"no clusters":   nil,
		"empty cluster": {nil, {{X: 1, Y: 2, Z: 3}}, {}},
	}
	for name, clusters := range cases {
		b := buildBatch(9, 42, clusters, DefaultQuantScale)
		got, err := DecodeClusterBatch(EncodeClusterBatch(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Clusters) != len(clusters) || got.PoleID != 9 || got.Seq != 42 {
			t.Fatalf("%s: decoded %d clusters pole=%d seq=%d", name, len(got.Clusters), got.PoleID, got.Seq)
		}
		for i := range clusters {
			if got.Clusters[i].Len() != len(clusters[i]) {
				t.Fatalf("%s: cluster %d has %d points, want %d", name, i, got.Clusters[i].Len(), len(clusters[i]))
			}
		}
	}
}

// TestClusterBatchCompression pins the bytes/frame gate at codec level:
// human-scale clusters at the default scale must beat the float32
// baseline by ≥ 3×.
func TestClusterBatchCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	clusters := randClusters(rng, 8)
	b := buildBatch(1, 1, clusters, DefaultQuantScale)
	enc := EncodeClusterBatch(b)
	// The float32 baseline: the (PoleID, Seq) key, a cluster count, and
	// per cluster a point count plus three float32 coordinates per point.
	f32 := 4 + 8 + 4
	for i := range b.Clusters {
		f32 += 4 + 12*b.Clusters[i].Len()
	}
	ratio := float64(f32) / float64(len(enc))
	if ratio < 3 {
		t.Fatalf("compression %.2fx vs float32 baseline, want ≥ 3x (%d vs %d bytes)", ratio, f32, len(enc))
	}
}

func TestClusterBatchDecodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b := buildBatch(1, 1, randClusters(rng, 2), DefaultQuantScale)
	enc := EncodeClusterBatch(b)
	if _, err := DecodeClusterBatch(enc[:len(enc)-1]); err == nil {
		t.Error("truncated batch should fail")
	}
	if _, err := DecodeClusterBatch(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	bad := buildBatch(1, 1, nil, DefaultQuantScale)
	bad.Scale = -1
	if _, err := DecodeClusterBatch(EncodeClusterBatch(bad)); err == nil {
		t.Error("non-positive scale should fail")
	}
	bad.Scale = math.NaN()
	if _, err := DecodeClusterBatch(EncodeClusterBatch(bad)); err == nil {
		t.Error("NaN scale should fail")
	}
	bad = buildBatch(1, 1, nil, DefaultQuantScale)
	bad.Origin.X = math.Inf(1)
	if _, err := DecodeClusterBatch(EncodeClusterBatch(bad)); err == nil {
		t.Error("non-finite origin should fail")
	}
	// A huge claimed cluster count must be rejected before allocation.
	var e encoder
	e.u32(1)
	e.u64(1)
	for i := 0; i < 4; i++ {
		e.f64(1)
	}
	e.u32(math.MaxUint32)
	if _, err := DecodeClusterBatch(e.buf); err == nil {
		t.Error("oversized cluster count should fail")
	}
	// And a huge claimed point count (zero-width axes make it free to
	// claim) must trip the batch point bound, not allocate gigabytes.
	e = encoder{}
	e.u32(1)
	e.u64(1)
	for i := 0; i < 4; i++ {
		e.f64(1)
	}
	e.u32(1)
	e.u32(maxBatchPoints + 1)
	if _, err := DecodeClusterBatch(e.buf); err == nil {
		t.Error("oversized point count should fail")
	}
}

// FuzzDecodeClusterBatch asserts the decoder never panics and that any
// accepted input re-decodes consistently after a canonical re-encode.
func FuzzDecodeClusterBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	f.Add(EncodeClusterBatch(buildBatch(1, 2, randClusters(rng, 3), DefaultQuantScale)))
	f.Add(EncodeClusterBatch(buildBatch(0, 0, nil, DefaultQuantScale)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeClusterBatch(data)
		if err != nil {
			return
		}
		again, err := DecodeClusterBatch(EncodeClusterBatch(b))
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed to decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(b), normalize(again)) {
			t.Fatal("re-encoded batch decoded differently")
		}
	})
}
