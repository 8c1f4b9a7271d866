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
// (DA's density, HAP's σz) to the k-d tree oracle (internal/kdtree) bit
// for bit.
var indexPool = sync.Pool{New: func() any { return new(spatial.FrameIndex) }}

// Image is a D×D multi-channel raster in channel-last layout:
// Data[(row*D+col)*C + ch].
type Image struct {
	D, C int
	Data []float32
}

// Projector converts a cloud of exactly Size() points into an Image.
// Callers pass clouds already in the classifier's viewport frame (see
// Viewport); projectors encode coordinates as given.
type Projector interface {
	// Name identifies the projection for experiment reports.
	Name() string
	// Channels is the channel count of produced images.
	Channels() int
	// Project converts the cloud. The cloud length must equal the target
	// size the projector was built for (a perfect square).
	Project(cloud geom.Cloud) Image
}

// KNeighbors is the neighborhood size for height-variation and density
// computations.
const KNeighbors = 8

// canonical returns the cloud sorted lexicographically by (z, x, y),
// height-major. Point clouds are unordered; the CNN needs a deterministic,
// spatially coherent reshape, so every projector canonicalizes first. (The
// paper inherits scan order from the sensor, which is also height-banded —
// beams sweep constant-elevation rings.) Height-major order makes each
// image row a height band, aligning the reshape with the height semantics
// HAWC keys on.
//
// Points whose keys compare equal are the same point, so the order the
// sort leaves them in cannot change any channel.
func canonical(cloud geom.Cloud) geom.Cloud {
	c := cloud.Clone()
	slices.SortFunc(c, compareZXY)
	return c
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
// centroid.
func Viewport(padded geom.Cloud, center geom.Point3, window float64) geom.Cloud {
	c := padded.Clone()
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

// heightVariation computes σ_z per point: the standard deviation of the
// z-coordinates of the point's K nearest neighbors (Section V). Every
// point's neighborhood comes from one spatial.KNNAll pass.
func heightVariation(cloud geom.Cloud, k int) []float64 {
	out := make([]float64, len(cloud))
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

// Project implements Projector.
func (HAP) Project(cloud geom.Cloud) Image {
	c := canonical(cloud)
	sigma := heightVariation(c, KNeighbors)
	d := side(len(c))
	im := Image{D: d, C: 7, Data: make([]float32, len(c)*7)}
	for i, p := range c {
		base := i * 7
		im.Data[base+0] = float32(p.X)
		im.Data[base+1] = float32(p.Y)
		im.Data[base+2] = float32(sigma[i])
		im.Data[base+3] = float32(p.Y)
		im.Data[base+4] = float32(p.Z)
		im.Data[base+5] = float32(p.X)
		im.Data[base+6] = float32(p.Z)
	}
	return im
}

// ThreeView is HAP without the height-variation channel (the "TV"
// baseline in Figure 9): channels (x, y, y, z, x, z).
type ThreeView struct{}

var _ Projector = ThreeView{}

// Name implements Projector.
func (ThreeView) Name() string { return "TV" }

// Channels implements Projector.
func (ThreeView) Channels() int { return 6 }

// Project implements Projector.
func (ThreeView) Project(cloud geom.Cloud) Image {
	c := canonical(cloud)
	d := side(len(c))
	im := Image{D: d, C: 6, Data: make([]float32, len(c)*6)}
	for i, p := range c {
		base := i * 6
		im.Data[base+0] = float32(p.X)
		im.Data[base+1] = float32(p.Y)
		im.Data[base+2] = float32(p.Y)
		im.Data[base+3] = float32(p.Z)
		im.Data[base+4] = float32(p.X)
		im.Data[base+5] = float32(p.Z)
	}
	return im
}

// BEV is the bird-eye-view baseline: the top view only, channels (x, y).
// As the paper notes, it discards all vertical information.
type BEV struct{}

var _ Projector = BEV{}

// Name implements Projector.
func (BEV) Name() string { return "BEV" }

// Channels implements Projector.
func (BEV) Channels() int { return 2 }

// Project implements Projector.
func (BEV) Project(cloud geom.Cloud) Image {
	c := canonical(cloud)
	d := side(len(c))
	im := Image{D: d, C: 2, Data: make([]float32, len(c)*2)}
	for i, p := range c {
		im.Data[i*2+0] = float32(p.X)
		im.Data[i*2+1] = float32(p.Y)
	}
	return im
}

// RV is the range-view baseline: per-point spherical coordinates
// (azimuth, elevation, range) as seen from the sensor origin.
type RV struct{}

var _ Projector = RV{}

// Name implements Projector.
func (RV) Name() string { return "RV" }

// Channels implements Projector.
func (RV) Channels() int { return 3 }

// Project implements Projector.
func (RV) Project(cloud geom.Cloud) Image {
	c := canonical(cloud)
	d := side(len(c))
	im := Image{D: d, C: 3, Data: make([]float32, len(c)*3)}
	for i, p := range c {
		r := p.Norm()
		az := math.Atan2(p.Y, p.X)
		el := 0.0
		if r > 0 {
			el = math.Asin(p.Z / r)
		}
		im.Data[i*3+0] = float32(az)
		im.Data[i*3+1] = float32(el)
		im.Data[i*3+2] = float32(r)
	}
	return im
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

// Project implements Projector.
func (DA) Project(cloud geom.Cloud) Image {
	c := canonical(cloud)
	fi := indexPool.Get().(*spatial.FrameIndex)
	defer indexPool.Put(fi)
	fi.Build(c, DensityRadius)
	density := make([]float64, len(c))
	for i, p := range c {
		density[i] = float64(fi.RadiusCount(p, DensityRadius)-1) / float64(KNeighbors)
	}
	d := side(len(c))
	im := Image{D: d, C: 3, Data: make([]float32, len(c)*3)}
	for i, p := range c {
		im.Data[i*3+0] = float32(p.X)
		im.Data[i*3+1] = float32(p.Y)
		im.Data[i*3+2] = float32(density[i])
	}
	return im
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
