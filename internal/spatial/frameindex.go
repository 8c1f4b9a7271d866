package spatial

import (
	"hawccc/internal/geom"
)

// FrameIndex bundles a Grid with reusable query buffers: the
// one-build-per-frame radius index the geometry stage shares across the
// structure-gap coarse pass, DBSCAN expansion, and the projection's
// density channel. Build it once per frame (Build
// reuses all internal arrays) and query it from a single goroutine —
// Radius returns a view into the internal buffer, valid only until the
// next query. Callers that need concurrent queries or longer-lived
// results use the Grid's Into variants with their own buffers.
type FrameIndex struct {
	Grid Grid
	nbuf []int
}

// Build (re)indexes cloud with the given cell edge; cell <= 0 selects
// AutoCell's default. Steady-state rebuilds are allocation-free once the
// internal arrays have grown to the traffic.
func (f *FrameIndex) Build(cloud geom.Cloud, cell float64) {
	f.Grid.Reset(cloud, cell)
}

// Len returns the number of indexed points.
func (f *FrameIndex) Len() int { return f.Grid.Len() }

// Radius returns the indices of all points within r of q (inclusive),
// in a buffer owned by the index: valid until the next Radius call.
func (f *FrameIndex) Radius(q geom.Point3, r float64) []int {
	f.nbuf = f.Grid.RadiusInto(f.nbuf[:0], q, r)
	return f.nbuf
}

// RadiusCount returns the number of points within r of q.
func (f *FrameIndex) RadiusCount(q geom.Point3, r float64) int {
	return f.Grid.RadiusCount(q, r)
}
