package spatial

// Vectorized grid scans: the fast path behind RadiusInto and
// RadiusCount.
//
// The grid keeps a float32 mirror of the coordinates in CSR (ids) order,
// so every cell — and every contiguous run of z-cells a radius query
// visits — is one dense span for the 8-wide internal/geom/kernels
// primitives. float32 arithmetic changes values at decision boundaries,
// so the mirror is used strictly as a prefilter ("filter and refine"):
//
//   - the float32 squared distance d2f to each candidate is computed
//     8-wide;
//   - an analytic bound tol on |d2f − d2| (d2 the exact float64 squared
//     distance to the source point) splits candidates into definitely-in
//     (d2f ≤ r² − tol), definitely-out (d2f > r² + tol), and a narrow
//     uncertainty band;
//   - only band candidates are re-checked exactly, in float64, against
//     the source coordinates.
//
// Cell membership and scan ranges come from the float64 source
// coordinates exactly as in the scalar path, so the vector path returns
// exact results — the same index set, differing at most in the
// (documented as unspecified) Radius output order, because vectorized
// builds bin coarser (vecCellScale) and CSR order follows the lattice.
// Counts are bit-identical, so every grid-vs-kdtree and loop-vs-stream
// equality property in the test suite holds verbatim. Toggling
// kernels.SetVectorized therefore changes speed, never results; the
// scalar scan is what runs on hardware without AVX and what
// gridvec_test.go compares the vector scan against.
//
// Error bound. With u = 2⁻²⁴ (float32 ulp), M a bound on every
// coordinate magnitude (grid maxAbs joined with the query point), and
// T the threshold, a first-order analysis of rounding both endpoints to
// float32 and evaluating ((dx²+dy²)+dz²) in float32 gives
// |d2f − d2| ≲ u·(7·M·√T + 5·T) for points with d2 ≤ T (and
// symmetrically for d2f ≤ T). f32Tol uses 32·M·√T + 24·T — more than 4×
// the first-order bound — plus a second-order u²M² term and a small
// absolute term covering subnormal rounding, so the band errs on the
// side of re-checking a few extra candidates rather than ever
// misclassifying one. Grids whose coordinates are non-finite or so large
// (≥ maxVecCoord) that the bound degenerates simply build without the
// mirror and scan scalar.

import (
	"math"
	"math/bits"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// vecChunk is the span chunk size for the stack-allocated distance
// buffers (1 KiB of float32).
const vecChunk = 256

// minVecSpan is the span length below which the radius paths scan
// scalar: the chunked kernel call plus the buffered re-read costs more
// than it saves on a handful of candidates.
const minVecSpan = 8

// vecCellScale widens the bin edge of grids built while the kernels are
// active (see sizeLattice).
const vecCellScale = 1.25

// maxVecCoord is the coordinate-magnitude ceiling for the vector path.
// Beyond it the u²M² term of the error bound stops being negligible
// against float32 range; such degenerate clouds (kilometres-plus from
// the sensor) scan scalar.
const maxVecCoord = 1e17

// refreshVec rebuilds the float32 CSR-ordered coordinate mirror after a
// grid build over n points with bounds b, or disables the vector path
// when the kernels are (or this cloud is) unsuitable.
func (g *Grid) refreshVec(n int, b geom.Box) {
	g.maxAbs = boxMaxAbs(b)
	// NaN maxAbs (non-finite coordinates) fails this comparison too.
	g.vec = kernels.Vectorized() && g.maxAbs < maxVecCoord
	if !g.vec {
		return
	}
	g.gx = growFloat32(g.gx, n)
	g.gy = growFloat32(g.gy, n)
	g.gz = growFloat32(g.gz, n)
	for j, id := range g.ids[:n] {
		p := g.pts[id]
		g.gx[j] = float32(p.X)
		g.gy[j] = float32(p.Y)
		g.gz[j] = float32(p.Z)
	}
}

// growFloat32 returns s resized to n, reallocating only when capacity is
// insufficient.
func growFloat32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// boxMaxAbs returns the largest coordinate magnitude of the box corners
// (NaN if any coordinate is NaN, which callers treat as unusable).
func boxMaxAbs(b geom.Box) float64 {
	m := math.Abs(b.Min.X)
	for _, v := range [5]float64{b.Max.X, b.Min.Y, b.Max.Y, b.Min.Z, b.Max.Z} {
		a := math.Abs(v)
		if !(a <= m) { // pick up both larger values and NaN
			m = a
		}
	}
	return m
}

// f32Tol bounds |d2f − d2| for threshold t and coordinate-magnitude
// bound m; see the package comment above for the derivation.
func f32Tol(t, m float64) float64 {
	const u = 1.0 / (1 << 24)
	return u*(32*m*math.Sqrt(t)+24*t) + 64*u*u*m*m + 1e-38
}

// filterBounds returns the float32 prefilter thresholds for an exact
// float64 threshold t: d2f ≤ loF implies d2 ≤ t, and d2 ≤ t implies
// d2f ≤ hiF. The Nextafter steps absorb the float64→float32 rounding of
// the thresholds themselves.
func (g *Grid) filterBounds(q geom.Point3, t float64) (loF, hiF float32) {
	m := g.maxAbs
	for _, v := range [3]float64{q.X, q.Y, q.Z} {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	tol := f32Tol(t, m)
	loF = math.Nextafter32(float32(t-tol), float32(math.Inf(-1)))
	hiF = math.Nextafter32(float32(t+tol), float32(math.Inf(1)))
	return loF, hiF
}

// radiusVec is RadiusInto's vector path over the clamped cell ranges.
// Each ix row is scanned as ONE contiguous CSR span from (iy0, iz0) to
// (iy1, iz1) — a superset of the requested cells that drags in the
// z-extremes of the middle columns. Those extra candidates lie outside
// the z interval the range was built from, so they genuinely fail the
// distance test and the output matches the cell-exact scalar scan id
// for id, in the same (CSR) order. What the fusion buys is span length:
// the sensor's clouds put only a handful of points in each cell, and
// per-cell spans are too short for the 8-wide kernels to pay off.
//
// The fused mask kernel turns each 8-lane block into two mask bytes —
// candidates (≤ hiF) and definite-ins (≤ loF) — so the accept loop
// touches only set bits: misses cost one byte test per block, definite
// hits append without an exact distance, and only the narrow band pays
// a float64 re-check.
func (g *Grid) radiusVec(dst []int, q geom.Point3, r2 float64, ix0, ix1, iy0, iy1, iz0, iz1 int) []int {
	qx, qy, qz := float32(q.X), float32(q.Y), float32(q.Z)
	loF, hiF := g.filterBounds(q, r2)
	var mHi, mLo [vecChunk / 8]uint8
	for ix := ix0; ix <= ix1; ix++ {
		row := (ix*g.ny + iy0) * g.nz
		end := (ix*g.ny + iy1) * g.nz
		lo, hi := int(g.start[row+iz0]), int(g.start[end+iz1+1])
		if hi-lo < minVecSpan {
			for _, id := range g.ids[lo:hi] {
				if q.Dist2(g.pts[id]) <= r2 {
					dst = append(dst, int(id))
				}
			}
			continue
		}
		// The mask kernel takes whole 8-lane blocks; the ragged tail
		// (< 8 points) is cheaper checked exactly than masked.
		vecEnd := lo + (hi-lo)&^7
		for lo < vecEnd {
			m := vecEnd - lo
			if m > vecChunk {
				m = vecChunk
			}
			nb := m / 8
			kernels.MaskDist2LE(mHi[:nb], mLo[:nb], g.gx[lo:lo+m], g.gy[lo:lo+m], g.gz[lo:lo+m], qx, qy, qz, hiF, loF)
			for b := 0; b < nb; b++ {
				h := mHi[b]
				if h == 0 {
					continue
				}
				l := mLo[b]
				base := lo + b*8
				for h != 0 {
					j := bits.TrailingZeros8(h)
					h &= h - 1
					id := g.ids[base+j]
					if l>>uint(j)&1 != 0 || q.Dist2(g.pts[id]) <= r2 {
						dst = append(dst, int(id))
					}
				}
			}
			lo += m
		}
		for _, id := range g.ids[lo:hi] {
			if q.Dist2(g.pts[id]) <= r2 {
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}

// radiusCountVec is RadiusCount's vector path: two fused compare-count
// passes per chunk (at the definite-in and definite-out thresholds).
// When both agree the band is empty and the count is exact; otherwise
// the chunk falls back to distances plus per-candidate refinement.
func (g *Grid) radiusCountVec(q geom.Point3, r2 float64, ix0, ix1, iy0, iy1, iz0, iz1 int) int {
	qx, qy, qz := float32(q.X), float32(q.Y), float32(q.Z)
	loF, hiF := g.filterBounds(q, r2)
	count := 0
	var buf [vecChunk]float32
	for ix := ix0; ix <= ix1; ix++ {
		// One fused span per ix row, exactly as in radiusVec: the extra
		// candidates the superset drags in fail the distance test, so
		// only the span shape changes, never the count.
		row := (ix*g.ny + iy0) * g.nz
		end := (ix*g.ny + iy1) * g.nz
		lo, hi := int(g.start[row+iz0]), int(g.start[end+iz1+1])
		if hi-lo < minVecSpan {
			for _, id := range g.ids[lo:hi] {
				if q.Dist2(g.pts[id]) <= r2 {
					count++
				}
			}
			continue
		}
		for lo < hi {
			m := hi - lo
			if m > vecChunk {
				m = vecChunk
			}
			xs, ys, zs := g.gx[lo:lo+m], g.gy[lo:lo+m], g.gz[lo:lo+m]
			cLo := kernels.CountDist2LE(xs, ys, zs, qx, qy, qz, loF)
			if cHi := kernels.CountDist2LE(xs, ys, zs, qx, qy, qz, hiF); cHi == cLo {
				count += cLo
			} else {
				kernels.Dist2(buf[:m], xs, ys, zs, qx, qy, qz)
				for j := 0; j < m; j++ {
					d2f := buf[j]
					if d2f > hiF {
						continue
					}
					if d2f <= loF || q.Dist2(g.pts[g.ids[lo+j]]) <= r2 {
						count++
					}
				}
			}
			lo += m
		}
	}
	return count
}
