// Package geom provides the basic 3D geometry types shared by every layer
// of HAWC-CC: points, point clouds, bounding boxes, and simple statistics
// over clouds. The coordinate convention follows the paper's deployment:
// the LiDAR sensor sits at the origin on top of a 3 m pole, x points down
// the walkway (positive away from the pole), y spans the walkway width, and
// z is vertical with the ground near z = -3 m.
package geom

import (
	"fmt"
	"math"
)

// Point3 is a single LiDAR return in sensor-frame coordinates (meters).
type Point3 struct {
	X, Y, Z float64
}

// P is a concise Point3 constructor for call sites outside this package,
// where unkeyed composite literals are discouraged.
func P(x, y, z float64) Point3 { return Point3{X: x, Y: y, Z: z} }

// Add returns p + q componentwise.
func (p Point3) Add(q Point3) Point3 { return Point3{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q componentwise.
func (p Point3) Sub(q Point3) Point3 { return Point3{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point3) Scale(s float64) Point3 { return Point3{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q.
func (p Point3) Dot(q Point3) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of p.
func (p Point3) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point3) Dist(q Point3) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths (neighbour searches, DBSCAN region
// queries). Each product and the inner sum are rounded explicitly, which
// keeps a compiler from fusing them into multiply-adds (Go fuses on
// arm64): every architecture computes the same bits as the amd64 vector
// kernels, (dx² + dy²) + dz², each step rounded.
func (p Point3) Dist2(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return float64(float64(dx*dx)+float64(dy*dy)) + float64(dz*dz)
}

// Coord returns the axis-th coordinate (0 = x, 1 = y, 2 = z).
func (p Point3) Coord(axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	case 2:
		return p.Z
	default:
		panic(fmt.Sprintf("geom: invalid axis %d", axis))
	}
}

// Cloud is an unordered set of LiDAR returns. The zero value is an empty
// cloud ready to use.
type Cloud []Point3

// Clone returns a deep copy of the cloud.
func (c Cloud) Clone() Cloud {
	out := make(Cloud, len(c))
	copy(out, c)
	return out
}

// Centroid returns the arithmetic mean of the cloud's points. It returns
// the zero point for an empty cloud.
func (c Cloud) Centroid() Point3 {
	if len(c) == 0 {
		return Point3{}
	}
	var sum Point3
	for _, p := range c {
		sum = sum.Add(p)
	}
	return sum.Scale(1 / float64(len(c)))
}

// AppendTranslated appends src shifted by d onto dst and returns the
// extended slice, in a single pass and with no temporary.
func AppendTranslated(dst, src Cloud, d Point3) Cloud {
	if need := len(dst) + len(src); cap(dst) < need {
		grown := make(Cloud, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, p := range src {
		dst = append(dst, p.Add(d))
	}
	return dst
}

// Bounds returns the axis-aligned bounding box of the cloud. Empty clouds
// yield an empty box (Min > Max on every axis).
func (c Cloud) Bounds() Box {
	if len(c) == 0 {
		return EmptyBox()
	}
	b := Box{Min: c[0], Max: c[0]}
	for _, p := range c[1:] {
		b.Min.X = math.Min(b.Min.X, p.X)
		b.Min.Y = math.Min(b.Min.Y, p.Y)
		b.Min.Z = math.Min(b.Min.Z, p.Z)
		b.Max.X = math.Max(b.Max.X, p.X)
		b.Max.Y = math.Max(b.Max.Y, p.Y)
		b.Max.Z = math.Max(b.Max.Z, p.Z)
	}
	return b
}

// Filter returns the points for which keep returns true. The result shares
// no storage with c.
func (c Cloud) Filter(keep func(Point3) bool) Cloud {
	out := make(Cloud, 0, len(c))
	for _, p := range c {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point3
}

// EmptyBox returns a box that contains no points; Extend-ing it with a
// point yields the degenerate box at that point.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{
		Min: Point3{inf, inf, inf},
		Max: Point3{-inf, -inf, -inf},
	}
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend grows the box to include p and returns the result.
func (b Box) Extend(p Point3) Box {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
	return b
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return b.Extend(o.Min).Extend(o.Max)
}

// Size returns the box extents on each axis. Empty boxes report zero size.
func (b Box) Size() Point3 {
	if b.IsEmpty() {
		return Point3{}
	}
	return b.Max.Sub(b.Min)
}
