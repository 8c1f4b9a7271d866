package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hawccc/internal/geom"
)

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
		b := BuildClusterBatch(uint32(trial), uint64(trial)<<8, clusters, DefaultQuantScale)
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
	b := BuildClusterBatch(1, 1, clusters, 0)
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
	b := BuildClusterBatch(1, 1, []geom.Cloud{far}, DefaultQuantScale)
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
		b := BuildClusterBatch(9, 42, clusters, DefaultQuantScale)
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
	b := BuildClusterBatch(1, 1, clusters, DefaultQuantScale)
	enc := EncodeClusterBatch(b)
	ratio := float64(b.Float32Bytes()) / float64(len(enc))
	if ratio < 3 {
		t.Fatalf("compression %.2fx vs float32 baseline, want ≥ 3x (%d vs %d bytes)", ratio, b.Float32Bytes(), len(enc))
	}
}

func TestClusterBatchDecodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b := BuildClusterBatch(1, 1, randClusters(rng, 2), DefaultQuantScale)
	enc := EncodeClusterBatch(b)
	if _, err := DecodeClusterBatch(enc[:len(enc)-1]); err == nil {
		t.Error("truncated batch should fail")
	}
	if _, err := DecodeClusterBatch(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	bad := BuildClusterBatch(1, 1, nil, DefaultQuantScale)
	bad.Scale = -1
	if _, err := DecodeClusterBatch(EncodeClusterBatch(bad)); err == nil {
		t.Error("non-positive scale should fail")
	}
	bad.Scale = math.NaN()
	if _, err := DecodeClusterBatch(EncodeClusterBatch(bad)); err == nil {
		t.Error("NaN scale should fail")
	}
	bad = BuildClusterBatch(1, 1, nil, DefaultQuantScale)
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

func TestClassifyResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 200} {
		r := ClassifyResult{PoleID: 3, Seq: uint64(n), Labels: make([]bool, n)}
		for i := range r.Labels {
			r.Labels[i] = rng.Intn(2) == 1
		}
		got, err := DecodeClassifyResult(EncodeClassifyResult(r))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.PoleID != r.PoleID || got.Seq != r.Seq {
			t.Fatalf("n=%d: key %d/%d", n, got.PoleID, got.Seq)
		}
		gl := got.Labels
		if len(gl) == 0 {
			gl = nil
		}
		rl := r.Labels
		if len(rl) == 0 {
			rl = nil
		}
		if !reflect.DeepEqual(gl, rl) {
			t.Fatalf("n=%d: labels differ", n)
		}
	}
}

func TestClassifyResultDecodeErrors(t *testing.T) {
	r := ClassifyResult{PoleID: 1, Seq: 2, Labels: []bool{true, false, true}}
	enc := EncodeClassifyResult(r)
	if _, err := DecodeClassifyResult(enc[:len(enc)-1]); err == nil {
		t.Error("truncated result should fail")
	}
	if _, err := DecodeClassifyResult(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// FuzzDecodeClusterBatch asserts the decoder never panics and that any
// accepted input re-decodes consistently after a canonical re-encode.
func FuzzDecodeClusterBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	f.Add(EncodeClusterBatch(BuildClusterBatch(1, 2, randClusters(rng, 3), DefaultQuantScale)))
	f.Add(EncodeClusterBatch(BuildClusterBatch(0, 0, nil, DefaultQuantScale)))
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

// FuzzDecodeClassifyResult asserts the result decoder never panics and
// round-trips whatever it accepts.
func FuzzDecodeClassifyResult(f *testing.F) {
	f.Add(EncodeClassifyResult(ClassifyResult{PoleID: 1, Seq: 2, Labels: []bool{true, false}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeClassifyResult(data)
		if err != nil {
			return
		}
		again, err := DecodeClassifyResult(EncodeClassifyResult(r))
		if err != nil {
			t.Fatalf("re-encode of accepted result failed to decode: %v", err)
		}
		if len(again.Labels) != len(r.Labels) {
			t.Fatal("label count changed across re-encode")
		}
	})
}
