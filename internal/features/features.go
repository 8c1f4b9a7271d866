// Package features extracts the hand-crafted slice features that the
// AutoEncoder-CC and OC-SVM-CC baselines classify (Section VII-A): each
// cluster is divided into 0.2 m vertical slices (approximating human head
// length, after Leigh et al.), and per-slice shape statistics plus global
// cluster statistics form a fixed-length vector.
package features

import (
	"math"

	"hawccc/internal/geom"
)

// SliceHeight is the vertical slice interval in meters.
const SliceHeight = 0.2

// NumSlices covers the z band from the ground filter threshold up to the
// tallest plausible pedestrian (−2.6 m … −0.6 m in sensor frame = 0…2 m
// above the walkway plus the 0.4 m noise margin).
const NumSlices = 10

// PerSlice is the number of features extracted per slice.
const PerSlice = 4

// NumGlobal is the number of whole-cluster features.
const NumGlobal = 6

// VectorLen is the total feature vector length.
const VectorLen = NumSlices*PerSlice + NumGlobal

// zBase is the bottom of slice 0 in sensor frame.
const zBase = -2.6

// Extract computes the feature vector for one cluster.
//
// Per slice (bottom-up): point count (normalized by cluster size), lateral
// width (y extent), depth (x extent), and boundary regularity — the
// standard deviation of point distance from the slice centroid in the xy
// plane (low for circular cross-sections like torsos and trash cans,
// higher for irregular bushes).
//
// Global: cluster height, point count (log-scaled), xy aspect ratio,
// height/width ratio, centroid height above ground, and circularity of
// the whole footprint.
func Extract(cloud geom.Cloud) []float64 {
	v := make([]float64, VectorLen)
	if len(cloud) == 0 {
		return v
	}

	slices := make([]geom.Cloud, NumSlices)
	for _, p := range cloud {
		idx := int((p.Z - zBase) / SliceHeight)
		if idx < 0 {
			idx = 0
		}
		if idx >= NumSlices {
			idx = NumSlices - 1
		}
		slices[idx] = append(slices[idx], p)
	}

	n := float64(len(cloud))
	for i, s := range slices {
		base := i * PerSlice
		if len(s) == 0 {
			continue
		}
		b := s.Bounds()
		v[base+0] = float64(len(s)) / n
		v[base+1] = b.Size().Y
		v[base+2] = b.Size().X
		v[base+3] = boundaryRegularity(s)
	}

	gb := NumSlices * PerSlice
	bounds := cloud.Bounds()
	size := bounds.Size()
	height := size.Z
	width := math.Max(size.X, size.Y)
	v[gb+0] = height
	v[gb+1] = math.Log1p(n)
	if size.Y > 1e-9 {
		v[gb+2] = size.X / size.Y
	}
	if width > 1e-9 {
		v[gb+3] = height / width
	}
	v[gb+4] = cloud.Centroid().Z - zBase
	v[gb+5] = circularity(cloud)
	return v
}

// boundaryRegularity is the std-dev of xy distance from the slice
// centroid: near zero for thin/round cross sections, larger for sprawling
// irregular ones.
func boundaryRegularity(s geom.Cloud) float64 {
	c := s.Centroid()
	var mean float64
	dists := make([]float64, len(s))
	for i, p := range s {
		dx, dy := p.X-c.X, p.Y-c.Y
		dists[i] = math.Sqrt(dx*dx + dy*dy)
		mean += dists[i]
	}
	mean /= float64(len(s))
	var v float64
	for _, d := range dists {
		v += (d - mean) * (d - mean)
	}
	return math.Sqrt(v / float64(len(s)))
}

// circularity is the ratio of the smaller to larger eigenvalue of the xy
// covariance matrix: 1 for a circular footprint, → 0 for elongated ones.
func circularity(cloud geom.Cloud) float64 {
	c := cloud.Centroid()
	var sxx, syy, sxy float64
	for _, p := range cloud {
		dx, dy := p.X-c.X, p.Y-c.Y
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	n := float64(len(cloud))
	sxx, syy, sxy = sxx/n, syy/n, sxy/n
	// Eigenvalues of [[sxx, sxy], [sxy, syy]].
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := tr*tr/4 - det
	if disc < 0 {
		disc = 0
	}
	sq := math.Sqrt(disc)
	l1, l2 := tr/2+sq, tr/2-sq
	if l1 < 1e-12 {
		return 1
	}
	if l2 < 0 {
		l2 = 0
	}
	return l2 / l1
}
