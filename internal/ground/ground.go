// Package ground implements the ingestion filters of Section III: the
// region-of-interest crop that keeps only the walkway band the deployment
// observes, and the rule-based ground segmentation that removes
// ground-reflection noise (z below −2.6 m in the sensor frame).
package ground

import "hawccc/internal/geom"

// ROI bounds the captured volume. The deployment defaults (Section III):
// x ∈ [12, 35] m (closer returns are shadowed by the pole, farther ones
// reflect too weakly), y spanning the 5 m walkway, z within the pole's
// 0…−3 m detection band.
type ROI struct {
	XMin, XMax float64
	YMin, YMax float64
	ZMin, ZMax float64
}

// DefaultROI returns the paper's deployment ROI.
func DefaultROI() ROI {
	return ROI{
		XMin: 12, XMax: 35,
		YMin: -2.5, YMax: 2.5,
		ZMin: -3.0, ZMax: 0.0,
	}
}

// Contains reports whether p lies inside the ROI.
func (r ROI) Contains(p geom.Point3) bool {
	return p.X >= r.XMin && p.X <= r.XMax &&
		p.Y >= r.YMin && p.Y <= r.YMax &&
		p.Z >= r.ZMin && p.Z <= r.ZMax
}

// Crop returns the points inside the ROI.
func (r ROI) Crop(c geom.Cloud) geom.Cloud {
	return c.Filter(r.Contains)
}

// CropInto appends the points of c inside the ROI to dst and returns the
// extended slice. Callers stream frames through a reused buffer
// (dst[:0]), keeping steady-state ingest allocation-flat once the buffer
// has grown to frame size; the selected points and their order are
// exactly Crop's.
func (r ROI) CropInto(dst, c geom.Cloud) geom.Cloud {
	for _, p := range c {
		if r.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// DefaultZMin is the ground-segmentation threshold: empirical ground noise
// extends up to 0.4 m above the walkway, so with ground at −3 m the filter
// keeps z ≥ −2.6 m (Section III).
const DefaultZMin = -2.6

// Segment removes ground returns: only points with z ≥ zMin survive.
func Segment(c geom.Cloud, zMin float64) geom.Cloud {
	return c.Filter(func(p geom.Point3) bool { return p.Z >= zMin })
}

// SegmentInto appends the points of c with z ≥ zMin to dst and returns
// the extended slice — Segment's pooled-buffer companion, mirroring
// CropInto.
func SegmentInto(dst, c geom.Cloud, zMin float64) geom.Cloud {
	for _, p := range c {
		if p.Z >= zMin {
			dst = append(dst, p)
		}
	}
	return dst
}

// Ingest applies the full ingestion chain — ROI crop then ground
// segmentation with the default threshold — exactly as the deployed
// pipeline does before clustering.
func Ingest(c geom.Cloud, roi ROI) geom.Cloud {
	return Segment(roi.Crop(c), DefaultZMin)
}
