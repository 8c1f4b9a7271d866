package spatial

import (
	"hawccc/internal/geom"
)

// FrameIndex is the one-build-per-frame radius index of the
// projection's density channel, which only counts neighbours. Build it
// once per frame (Build reuses all internal arrays).
type FrameIndex struct {
	Grid Grid
}

// Build (re)indexes cloud with the given cell edge, which must be
// positive. Steady-state rebuilds are allocation-free once the internal
// arrays have grown to the traffic.
func (f *FrameIndex) Build(cloud geom.Cloud, cell float64) {
	f.Grid.Reset(cloud, cell)
}

// Len returns the number of indexed points.
func (f *FrameIndex) Len() int { return f.Grid.Len() }

// RadiusCount returns the number of points within r of q.
func (f *FrameIndex) RadiusCount(q geom.Point3, r float64) int {
	return f.Grid.RadiusCount(q, r)
}
