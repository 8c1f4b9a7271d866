// Package projection converts fixed-size 3D point clouds into the 2D
// multi-channel images a 2D CNN consumes. The paper's height-aware
// projection (HAP, Section V) generates top, front and side views and
// augments the top view with each point's neighborhood height variation,
// yielding a D×D×7 stack. The alternative projections of Figure 9 —
// bird-eye-view, range-view, density-aware, and plain three-view — are
// implemented alongside for the ablation.
package projection

import (
	"math"
	"slices"
	"sync"

	"hawccc/internal/geom"
	"hawccc/internal/spatial"
)

// indexPool recycles the spatial index behind DA's density channel.
// Projection runs per candidate cluster on every goroutine that counts
// a frame, so the pool hands each a warm index whose buffers are
// already grown. The equivalence tests hold the neighborhood channels
// (DA's density, HAP's σz) to a brute-force scan of the cloud bit for
// bit.
var indexPool = sync.Pool{New: func() any { return new(spatial.FrameIndex) }}

// Projector converts a cloud of exactly Size() points into a D×D
// multi-channel raster in channel-last layout: data[(row·D+col)·C + ch].
// Callers pass clouds already in the classifier's viewport frame (see
// Viewport); projectors encode coordinates as given.
type Projector interface {
	// Name identifies the projection for experiment reports.
	Name() string
	// Channels is the channel count of produced images.
	Channels() int
	// ProjectInto converts the cloud into dst, the image's channel-last
	// data (len(cloud)·Channels() floats, fully overwritten), allocating
	// nothing: a classifier builds its batch tensor in place with it.
	// The cloud length must equal the target size the projector was
	// built for (a perfect square).
	ProjectInto(dst []float32, cloud geom.Cloud)
}

// KNeighbors is the neighborhood size for height-variation and density
// computations.
const KNeighbors = 8

// scratch is the pooled working set of one projection: the cloud in
// canonical order, its sort keys and a per-point neighborhood channel.
type scratch struct {
	sorted geom.Cloud
	keys   []uint64
	aux    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin checks that cloud fills a square image and that dst holds its ch
// channels, and returns pooled scratch with s.sorted the canonical cloud
// and dst cut to the image. The caller puts s back in scratchPool.
func begin(dst []float32, cloud geom.Cloud, ch int) (s *scratch, out []float32) {
	side(len(cloud))
	out = dst[:len(cloud)*ch]
	s = scratchPool.Get().(*scratch)
	s.canonical(cloud)
	return s, out
}

// canonical writes the cloud, sorted lexicographically by (z, x, y),
// height-major, to s.sorted and returns it. Point clouds are unordered;
// the CNN needs a deterministic, spatially coherent reshape, so every
// projector canonicalizes first. (The paper inherits scan order from the
// sensor, which is also height-banded — beams sweep constant-elevation
// rings.) Height-major order makes each image row a height band,
// aligning the reshape with the height semantics HAWC keys on.
//
// It sorts integer keys, not points: each key holds the upper half of
// z's order-preserving bits above the point's index, and a radix sort
// orders them a byte per pass, without a comparison — a comparison sort
// of 225 points is mostly mispredicted branches. Only runs of points
// whose z agrees in that upper half — in practice, equal z — are then
// put in (z, x, y) order by compareZXY. Points whose coordinates compare
// equal are the same point (±0 aside), so the order left among them
// changes no channel.
func (s *scratch) canonical(cloud geom.Cloud) geom.Cloud {
	n := len(cloud)
	s.sorted = slices.Grow(s.sorted[:0], n)[:n]
	s.keys = slices.Grow(s.keys[:0], 2*n)[:2*n]
	keys, tmp := s.keys[:n], s.keys[n:]
	for i, p := range cloud {
		keys[i] = orderKey(p.Z)&^(1<<32-1) | uint64(i)
	}
	// LSD radix sort on the upper 32 bits; a byte every key shares
	// (the sign and most of the exponent, usually) costs no pass.
	var counts [4][256]int32
	for _, k := range keys {
		counts[0][byte(k>>32)]++
		counts[1][byte(k>>40)]++
		counts[2][byte(k>>48)]++
		counts[3][byte(k>>56)]++
	}
	for d := range counts {
		shift, c := 32+8*d, &counts[d]
		if n == 0 || c[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b uint64) int {
				return compareZXY(cloud[uint32(a)], cloud[uint32(b)])
			})
		}
		lo = hi
	}
	for i, k := range keys {
		s.sorted[i] = cloud[uint32(k)]
	}
	return s.sorted
}

// orderKey maps v to an integer in the same order: the float's bits with
// the sign bit set when v ≥ 0, all bits flipped when v < 0. −0 is keyed
// as +0, since the two compare equal.
func orderKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// compareZXY orders points lexicographically by (z, x, y).
func compareZXY(a, b geom.Point3) int {
	switch {
	case a.Z != b.Z:
		if a.Z < b.Z {
			return -1
		}
		return 1
	case a.X != b.X:
		if a.X < b.X {
			return -1
		}
		return 1
	case a.Y < b.Y:
		return -1
	case a.Y > b.Y:
		return 1
	}
	return 0
}

// ViewportWindow is the half-width (meters) of the classifier's viewport
// around a candidate cluster.
const ViewportWindow = 2.0

// Viewport transforms an up-sampled sample into the classifier's frame:
// x and y are centered on the candidate cluster's centroid and clamped to
// ±window, and z is rebased on the ground plane so absolute height — the
// feature HAWC keys on — is preserved. Padding noise drawn from object
// captures elsewhere in the ROI saturates at the window border, so the
// classifier always sees the candidate at a canonical position with the
// noise recognizably peripheral. center is the pre-padding cluster
// centroid. The result is written over dst's storage (nil for a new
// cloud); padded is not modified.
func Viewport(dst, padded geom.Cloud, center geom.Point3, window float64) geom.Cloud {
	c := append(dst[:0], padded...)
	const groundZ = -3.0
	clamp := func(v float64) float64 {
		if v > window {
			return window
		}
		if v < -window {
			return -window
		}
		return v
	}
	for i := range c {
		c[i].X = clamp(c[i].X - center.X)
		c[i].Y = clamp(c[i].Y - center.Y)
		c[i].Z -= groundZ
	}
	return c
}

// heightVariation writes σ_z per point to out (len(cloud) elements) and
// returns it: the standard deviation of the z-coordinates of the point's
// K nearest neighbors (Section V). Every point's neighborhood comes from
// one spatial.KNNAll pass.
func heightVariation(out []float64, cloud geom.Cloud, k int) []float64 {
	out = out[:len(cloud)]
	spatial.KNNAll(cloud, k, func(i int, nn []spatial.Neighbor) {
		var mean float64
		for _, n := range nn {
			mean += cloud[n.Index].Z
		}
		mean /= float64(len(nn))
		var v float64
		for _, n := range nn {
			d := cloud[n.Index].Z - mean
			v += d * d
		}
		out[i] = math.Sqrt(v / float64(len(nn)))
	})
	return out
}

// side panics unless n is a perfect square, returning √n.
func side(n int) int {
	d := int(math.Sqrt(float64(n)))
	if d*d != n {
		panic("projection: cloud size is not a perfect square")
	}
	return d
}

// HAP is the paper's height-aware projection: channels
// (x, y, σz, y, z, x, z) — the σz-augmented top view stacked with the
// front and side views.
type HAP struct{}

var _ Projector = HAP{}

// Name implements Projector.
func (HAP) Name() string { return "HAP" }

// Channels implements Projector.
func (HAP) Channels() int { return 7 }

// ProjectInto implements Projector.
func (HAP) ProjectInto(dst []float32, cloud geom.Cloud) {
	s, out := begin(dst, cloud, 7)
	defer scratchPool.Put(s)
	s.aux = heightVariation(slices.Grow(s.aux[:0], len(cloud)), s.sorted, KNeighbors)
	for i, p := range s.sorted {
		px := out[i*7 : i*7+7]
		px[0] = float32(p.X)
		px[1] = float32(p.Y)
		px[2] = float32(s.aux[i])
		px[3] = float32(p.Y)
		px[4] = float32(p.Z)
		px[5] = float32(p.X)
		px[6] = float32(p.Z)
	}
}

// ThreeView is HAP without the height-variation channel (the "TV"
// baseline in Figure 9): channels (x, y, y, z, x, z).
type ThreeView struct{}

var _ Projector = ThreeView{}

// Name implements Projector.
func (ThreeView) Name() string { return "TV" }

// Channels implements Projector.
func (ThreeView) Channels() int { return 6 }

// ProjectInto implements Projector.
func (ThreeView) ProjectInto(dst []float32, cloud geom.Cloud) {
	s, out := begin(dst, cloud, 6)
	defer scratchPool.Put(s)
	for i, p := range s.sorted {
		px := out[i*6 : i*6+6]
		px[0] = float32(p.X)
		px[1] = float32(p.Y)
		px[2] = float32(p.Y)
		px[3] = float32(p.Z)
		px[4] = float32(p.X)
		px[5] = float32(p.Z)
	}
}

// BEV is the bird-eye-view baseline: the top view only, channels (x, y).
// As the paper notes, it discards all vertical information.
type BEV struct{}

var _ Projector = BEV{}

// Name implements Projector.
func (BEV) Name() string { return "BEV" }

// Channels implements Projector.
func (BEV) Channels() int { return 2 }

// ProjectInto implements Projector.
func (BEV) ProjectInto(dst []float32, cloud geom.Cloud) {
	s, out := begin(dst, cloud, 2)
	defer scratchPool.Put(s)
	for i, p := range s.sorted {
		out[i*2+0] = float32(p.X)
		out[i*2+1] = float32(p.Y)
	}
}

// RV is the range-view baseline: per-point spherical coordinates
// (azimuth, elevation, range) as seen from the sensor origin.
type RV struct{}

var _ Projector = RV{}

// Name implements Projector.
func (RV) Name() string { return "RV" }

// Channels implements Projector.
func (RV) Channels() int { return 3 }

// ProjectInto implements Projector.
func (RV) ProjectInto(dst []float32, cloud geom.Cloud) {
	s, out := begin(dst, cloud, 3)
	defer scratchPool.Put(s)
	for i, p := range s.sorted {
		r := p.Norm()
		az := math.Atan2(p.Y, p.X)
		el := 0.0
		if r > 0 {
			el = math.Asin(p.Z / r)
		}
		out[i*3+0] = float32(az)
		out[i*3+1] = float32(el)
		out[i*3+2] = float32(r)
	}
}

// DA is the density-aware baseline: the top view augmented with each
// point's local density (neighbor count within a fixed radius) instead of
// height variation — spatial detail traded for density detail.
type DA struct{}

var _ Projector = DA{}

// DensityRadius is DA's neighborhood radius in meters.
const DensityRadius = 0.25

// Name implements Projector.
func (DA) Name() string { return "DA" }

// Channels implements Projector.
func (DA) Channels() int { return 3 }

// ProjectInto implements Projector.
func (DA) ProjectInto(dst []float32, cloud geom.Cloud) {
	s, out := begin(dst, cloud, 3)
	defer scratchPool.Put(s)
	fi := indexPool.Get().(*spatial.FrameIndex)
	defer indexPool.Put(fi)
	fi.Build(s.sorted, DensityRadius)
	for i, p := range s.sorted {
		out[i*3+0] = float32(p.X)
		out[i*3+1] = float32(p.Y)
		out[i*3+2] = float32(float64(fi.RadiusCount(p, DensityRadius)-1) / float64(KNeighbors))
	}
}

// ByName returns the projector for a Figure 9 method name (HAP, TV, BEV,
// RV, DA) and whether the name is known.
func ByName(name string) (Projector, bool) {
	switch name {
	case "HAP":
		return HAP{}, true
	case "TV":
		return ThreeView{}, true
	case "BEV":
		return BEV{}, true
	case "RV":
		return RV{}, true
	case "DA":
		return DA{}, true
	default:
		return nil, false
	}
}
