// The classification lattice: before a pole classifies a frame's kept
// clusters it snaps them onto an int16 lattice in a pole-local frame — a
// per-batch origin (the component-wise minimum corner) and scale (metres
// per lattice step) — and classifies the dequantized clouds
// (counting.stageKeep). The encoder stores, per cluster and axis, a
// zigzag-varint minimum and MSB-first bit-packed residuals at the
// smallest width that covers the cluster's extent. Nothing sends a batch
// over the network: clusters are classified on the pole and only counts
// leave it. The snap and the encoder stay because every golden count is
// pinned on lattice coordinates and the benchmark's wire.snap_us_per_frame
// and wire.batch_bytes_per_frame rows replay exactly these symbols (see
// DESIGN.md, "The classification lattice"). The decoder lives beside the
// round-trip and fuzz tests, its only users.
package wire

import (
	"encoding/binary"
	"math"
	"math/bits"

	"hawccc/internal/geom"
)

// DefaultQuantScale is the default lattice step in metres. 2 mm keeps
// the worst-case per-axis dequantization error at 1 mm — two orders of
// magnitude below LiDAR ranging noise — while spanning ±65 m around the
// batch origin, comfortably covering a pole's 10 m sensing radius.
const DefaultQuantScale = 0.002

// QuantCluster is one cluster's points on the batch's int16 lattice.
type QuantCluster struct {
	X, Y, Z []int16
}

// Len returns the cluster's point count.
func (c *QuantCluster) Len() int { return len(c.X) }

// ClusterBatch is one frame's kept clusters on the lattice. PoleID, Seq
// (the pole-local frame sequence number) and ModelVersion are header
// fields of the encoding, kept so its bytes do not change; the pipeline
// leaves PoleID and ModelVersion zero.
type ClusterBatch struct {
	PoleID       uint32
	Seq          uint64
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

// reuse16 returns a length-n int16 slice, recycling s's backing array
// when it is large enough.
func reuse16(s []int16, n int) []int16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int16, n)
}

// BuildInto quantizes one frame's kept clusters into b. The origin is
// the component-wise minimum corner across all points, so in-range clouds
// produce non-negative lattice coordinates; scale ≤ 0 selects
// DefaultQuantScale. Coordinates farther than Scale·32767 from the origin
// saturate at the lattice edge (see quantize). The cluster list and
// per-axis lattice buffers are recycled when their capacity allows, so
// the pipeline, which quantizes every frame, rebuilds its batch
// allocation-free at steady state.
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

// zigzag appends v as a zigzag-mapped unsigned varint.
func (e *encoder) zigzag(v int64) {
	e.buf = binary.AppendUvarint(e.buf, uint64(v<<1)^uint64(v>>63))
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
