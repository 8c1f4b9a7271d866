// Offload transport: when a pole sheds its classify stage to the
// backend it ships the frame's post-cluster sub-clouds in a compact
// quantized encoding and gets per-cluster labels back. Coordinates are
// quantized onto an int16 lattice in a pole-local frame — a per-batch
// origin (the component-wise minimum corner) and scale (metres per
// lattice step) — then each cluster stores, per axis, a zigzag-varint
// minimum and MSB-first bit-packed residuals at the smallest width that
// covers the cluster's extent. Humans span ~0.6 m in x/y and ~1.8 m in
// z, so at the default 2 mm scale residuals need 9–10 bits instead of
// the 96 bits/point of float64 structs or 96 bits of three float32
// coordinates' 12 bytes; see DESIGN.md for the layout and the
// round-trip tolerance contract (± Scale/2 per axis).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"hawccc/internal/geom"
)

// Offload message types.
const (
	// MsgClusterBatch carries one frame's quantized cluster clouds
	// (pole → backend).
	MsgClusterBatch MsgType = 6
	// MsgClassifyResult returns per-cluster labels for one batch
	// (backend → pole).
	MsgClassifyResult MsgType = 7
)

// DefaultQuantScale is the default lattice step in metres. 2 mm keeps
// the worst-case per-axis dequantization error at 1 mm — two orders of
// magnitude below LiDAR ranging noise — while spanning ±65 m around the
// batch origin, comfortably covering a pole's 10 m sensing radius.
const DefaultQuantScale = 0.002

// maxBatchPoints bounds the points a decoded batch may claim, so a
// corrupt or hostile frame cannot make the decoder allocate gigabytes
// (a zero bit width encodes any point count in zero residual bytes).
const maxBatchPoints = MaxFrameSize

// QuantCluster is one cluster's points on the batch's int16 lattice.
type QuantCluster struct {
	X, Y, Z []int16
}

// Len returns the cluster's point count.
func (c *QuantCluster) Len() int { return len(c.X) }

// ClusterBatch is one frame's kept clusters, quantized for transport.
// Seq is the pole-local frame sequence number; replies are keyed on
// (PoleID, Seq) and labels are positional by cluster index.
type ClusterBatch struct {
	PoleID uint32
	Seq    uint64
	// ModelVersion fingerprints the classifier the pole would have run
	// locally (models.HAWC.ModelVersion). The backend rejects batches
	// whose nonzero version differs from its own model so offloaded
	// labels never come from a different weight generation than the
	// edge path they must stay bit-equal with. Zero means unversioned.
	ModelVersion uint32
	Origin       geom.Point3 // lattice origin in the pole's sensor frame
	Scale        float64     // metres per lattice step, > 0
	Clusters     []QuantCluster
}

// Points returns the total point count across clusters.
func (b *ClusterBatch) Points() int {
	n := 0
	for i := range b.Clusters {
		n += b.Clusters[i].Len()
	}
	return n
}

// Float32Bytes returns the body size a plain float32 encoding of the
// same batch would need: the (PoleID, Seq) key, a cluster count, and
// per cluster a point count plus three float32 coordinates per point.
// Compression gates measure EncodeClusterBatch output against this.
func (b *ClusterBatch) Float32Bytes() int {
	n := 4 + 8 + 4
	for i := range b.Clusters {
		n += 4 + 12*b.Clusters[i].Len()
	}
	return n
}

// AppendCloud dequantizes cluster i onto dst and returns the extended
// slice. Recovered coordinates are Origin + Scale·q per axis.
func (b *ClusterBatch) AppendCloud(i int, dst geom.Cloud) geom.Cloud {
	c := &b.Clusters[i]
	if need := len(dst) + c.Len(); cap(dst) < need {
		grown := make(geom.Cloud, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for j := range c.X {
		dst = append(dst, geom.Point3{
			X: b.Origin.X + b.Scale*float64(c.X[j]),
			Y: b.Origin.Y + b.Scale*float64(c.Y[j]),
			Z: b.Origin.Z + b.Scale*float64(c.Z[j]),
		})
	}
	return dst
}

// ClassifyResult returns the backend's per-cluster labels for one
// ClusterBatch. Labels are positional: Labels[i] is true when cluster i
// of the batch with the same (PoleID, Seq) was classified human.
type ClassifyResult struct {
	PoleID uint32
	Seq    uint64
	Labels []bool
}

// quantize maps a coordinate onto the batch lattice, saturating at the
// int16 range. Inputs below origin or beyond origin + Scale·32767 clamp
// to the lattice edge rather than wrapping.
func quantize(v, origin, scale float64) int16 {
	q := math.Round((v - origin) / scale)
	if q >= math.MaxInt16 {
		return math.MaxInt16
	}
	if q <= math.MinInt16 {
		return math.MinInt16
	}
	return int16(q)
}

// BuildClusterBatch quantizes one frame's kept clusters for transport.
// The origin is the component-wise minimum corner across all points, so
// in-range clouds produce non-negative lattice coordinates; scale ≤ 0
// selects DefaultQuantScale. Coordinates farther than Scale·32767 from
// the origin saturate at the lattice edge (see quantize).
func BuildClusterBatch(poleID uint32, seq uint64, clusters []geom.Cloud, scale float64) ClusterBatch {
	var b ClusterBatch
	b.BuildInto(poleID, seq, clusters, scale)
	return b
}

// reuse16 returns a length-n int16 slice, recycling s's backing array
// when it is large enough.
func reuse16(s []int16, n int) []int16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int16, n)
}

// BuildInto is BuildClusterBatch writing into an existing batch: the
// cluster list and per-axis lattice buffers are recycled when their
// capacity allows, so a caller quantizing every frame (the streaming
// pipeline's classification lattice) rebuilds its batch allocation-free
// at steady state. Semantics are identical to BuildClusterBatch.
func (b *ClusterBatch) BuildInto(poleID uint32, seq uint64, clusters []geom.Cloud, scale float64) {
	if scale <= 0 {
		scale = DefaultQuantScale
	}
	b.PoleID, b.Seq, b.Scale = poleID, seq, scale
	b.Origin = geom.Point3{}
	first := true
	for _, c := range clusters {
		for _, p := range c {
			if first {
				b.Origin = p
				first = false
				continue
			}
			b.Origin.X = math.Min(b.Origin.X, p.X)
			b.Origin.Y = math.Min(b.Origin.Y, p.Y)
			b.Origin.Z = math.Min(b.Origin.Z, p.Z)
		}
	}
	if cap(b.Clusters) >= len(clusters) {
		b.Clusters = b.Clusters[:len(clusters)]
	} else {
		grown := make([]QuantCluster, len(clusters))
		copy(grown, b.Clusters)
		b.Clusters = grown
	}
	for i, c := range clusters {
		q := &b.Clusters[i]
		q.X = reuse16(q.X, len(c))
		q.Y = reuse16(q.Y, len(c))
		q.Z = reuse16(q.Z, len(c))
		for j, p := range c {
			q.X[j] = quantize(p.X, b.Origin.X, scale)
			q.Y[j] = quantize(p.Y, b.Origin.Y, scale)
			q.Z[j] = quantize(p.Z, b.Origin.Z, scale)
		}
	}
}

// varint / bit-packing primitives for the quantized payload.

func (e *encoder) zigzag(v int64) {
	e.buf = binary.AppendUvarint(e.buf, uint64(v<<1)^uint64(v>>63))
}

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

// encodeAxis writes one cluster axis: zigzag-varint minimum, residual
// bit width, then MSB-first bit-packed residuals. Width 0 means every
// value equals the minimum and carries no residual bytes.
func encodeAxis(e *encoder, vals []int16) {
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	width := uint(bits.Len32(uint32(int32(mx) - int32(mn))))
	e.zigzag(int64(mn))
	e.u8(uint8(width))
	if width == 0 {
		return
	}
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc = acc<<width | uint64(uint32(int32(v)-int32(mn)))
		nbits += width
		for nbits >= 8 {
			nbits -= 8
			e.u8(byte(acc >> nbits))
		}
	}
	if nbits > 0 {
		e.u8(byte(acc << (8 - nbits)))
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

// EncodeClusterBatch serializes b. The layout is: PoleID u32, Seq u64,
// ModelVersion u32, Origin 3×f64, Scale f64, cluster count u32, then
// per cluster a point count u32 followed by the three packed axes
// (x, y, z) — see encodeAxis. Empty clusters carry only their zero
// point count.
func EncodeClusterBatch(b ClusterBatch) []byte {
	var e encoder
	e.u32(b.PoleID)
	e.u64(b.Seq)
	e.u32(b.ModelVersion)
	e.f64(b.Origin.X)
	e.f64(b.Origin.Y)
	e.f64(b.Origin.Z)
	e.f64(b.Scale)
	e.u32(uint32(len(b.Clusters)))
	for i := range b.Clusters {
		c := &b.Clusters[i]
		e.u32(uint32(c.Len()))
		if c.Len() == 0 {
			continue
		}
		encodeAxis(&e, c.X)
		encodeAxis(&e, c.Y)
		encodeAxis(&e, c.Z)
	}
	return e.buf
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

// EncodeClassifyResult serializes r: PoleID u32, Seq u64, label count
// u32, then the labels as an MSB-first bitset.
func EncodeClassifyResult(r ClassifyResult) []byte {
	var e encoder
	e.u32(r.PoleID)
	e.u64(r.Seq)
	e.u32(uint32(len(r.Labels)))
	var acc byte
	var nbits uint
	for _, human := range r.Labels {
		acc <<= 1
		if human {
			acc |= 1
		}
		if nbits++; nbits == 8 {
			e.u8(acc)
			acc, nbits = 0, 0
		}
	}
	if nbits > 0 {
		e.u8(acc << (8 - nbits))
	}
	return e.buf
}

// DecodeClassifyResult parses a ClassifyResult body.
func DecodeClassifyResult(buf []byte) (ClassifyResult, error) {
	d := decoder{buf: buf}
	r := ClassifyResult{PoleID: d.u32(), Seq: d.u64()}
	n := d.u32()
	raw := d.bytes((int(n) + 7) / 8)
	if d.err == nil {
		r.Labels = make([]bool, n)
		for i := range r.Labels {
			r.Labels[i] = raw[i/8]>>(7-i%8)&1 == 1
		}
	}
	return r, d.finish()
}
