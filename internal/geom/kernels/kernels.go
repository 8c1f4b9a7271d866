// Package kernels provides the vectorized float32 primitives behind the
// voxel grid's float32 coordinate mirror: bulk squared distances from a
// query point to a contiguous x/y/z slice triple, and masked ε-radius
// compare counting. These are the inner loops of internal/spatial's
// voxel-grid radius and kNN scans, which DBSCAN and the adaptive-ε curve
// issue thousands of times per frame.
//
// Like internal/nn/kernels, the package keeps a pure-Go reference
// implementation of every kernel and dispatches to AVX assembly
// micro-kernels only when CPUID (and the OS's YMM state handling) says
// they are usable. The assembly follows the same bit-identical
// accumulation contract: per-lane operation sequence equal to the
// reference (VSUBPS/VMULPS/VADDPS with a fixed association, never FMA),
// so every kernel produces bit-identical results on every path and the
// dispatch changes speed, not values.
//
// All results are computed in float32. Callers that need exact float64
// semantics (the voxel grid's filter-and-refine queries) bound the
// float32 error analytically and re-check only candidates inside the
// uncertainty band; see internal/spatial.
package kernels

// vectorized gates the assembly fast paths. It is set once at init from
// CPUID and may be overridden by SetVectorized for baseline benchmarks
// and equivalence tests; it is not synchronized, so toggling is only
// safe when no kernel calls are in flight (tests and benchmarks toggle
// from a single goroutine before spawning work).
var vectorized = useAVX

// Vectorized reports whether the assembly fast paths are in use.
func Vectorized() bool { return vectorized }

// SetVectorized forces the assembly fast paths on or off and returns the
// previous setting. Enabling on hardware without AVX support downgrades
// to the reference implementations rather than faulting.
func SetVectorized(on bool) (prev bool) {
	prev = vectorized
	vectorized = on && useAVX
	return prev
}

// Dist2 writes into dst[i] the squared distance from the query point
// (qx, qy, qz) to (xs[i], ys[i], zs[i]) for every i, computed in float32
// with the fixed association ((dx²+dy²)+dz²). dst, xs, ys, and zs must
// share a length.
func Dist2(dst, xs, ys, zs []float32, qx, qy, qz float32) {
	n := len(dst)
	if len(xs) != n || len(ys) != n || len(zs) != n {
		panic("kernels: Dist2 slice length mismatch")
	}
	if n == 0 {
		return
	}
	i := 0
	if vectorized && n >= 8 {
		m := n &^ 7
		dist2AVX(&dst[0], &xs[0], &ys[0], &zs[0], m, qx, qy, qz)
		i = m
	}
	dist2Ref(dst[i:], xs[i:], ys[i:], zs[i:], qx, qy, qz)
}

// dist2Ref is the scalar reference: same per-element operation sequence
// as the assembly, so results are bit-identical.
func dist2Ref(dst, xs, ys, zs []float32, qx, qy, qz float32) {
	for i := range dst {
		dx := xs[i] - qx
		dy := ys[i] - qy
		dz := zs[i] - qz
		dst[i] = dx*dx + dy*dy + dz*dz
	}
}

// CountDist2LE returns the number of points whose float32 squared
// distance from (qx, qy, qz) — computed exactly as Dist2 computes it —
// is ≤ t. NaN distances (from non-finite inputs) never count, matching
// Go's <= on both paths.
func CountDist2LE(xs, ys, zs []float32, qx, qy, qz, t float32) int {
	n := len(xs)
	if len(ys) != n || len(zs) != n {
		panic("kernels: CountDist2LE slice length mismatch")
	}
	if n == 0 {
		return 0
	}
	count := 0
	i := 0
	if vectorized && n >= 8 {
		m := n &^ 7
		count = int(countLEAVX(&xs[0], &ys[0], &zs[0], m, qx, qy, qz, t))
		i = m
	}
	return count + countLERef(xs[i:], ys[i:], zs[i:], qx, qy, qz, t)
}

// countLERef is the scalar reference for CountDist2LE.
func countLERef(xs, ys, zs []float32, qx, qy, qz, t float32) int {
	count := 0
	for i := range xs {
		dx := xs[i] - qx
		dy := ys[i] - qy
		dz := zs[i] - qz
		if dx*dx+dy*dy+dz*dz <= t {
			count++
		}
	}
	return count
}

// MaskDist2LE writes per-8-lane bitmasks of the compares d2 ≤ tHi (into
// hiM) and d2 ≤ tLo (into loM), where d2 is the float32 squared distance
// from (qx, qy, qz) computed exactly as Dist2 computes it. Bit j of byte
// b answers for element 8b+j; bits past len(xs) are zero. hiM and loM
// must hold at least (len(xs)+7)/8 bytes. NaN distances set no bits,
// matching Go's <= on both paths. One fused pass serves the grid's
// filter-and-refine scans: hiM bits are the candidates, hiM&^loM the
// narrow band needing an exact re-check.
func MaskDist2LE(hiM, loM []uint8, xs, ys, zs []float32, qx, qy, qz, tHi, tLo float32) {
	n := len(xs)
	if len(ys) != n || len(zs) != n {
		panic("kernels: MaskDist2LE slice length mismatch")
	}
	if len(hiM) < (n+7)/8 || len(loM) < (n+7)/8 {
		panic("kernels: MaskDist2LE mask buffer too short")
	}
	if n == 0 {
		return
	}
	i := 0
	if vectorized && n >= 8 {
		m := n &^ 7
		maskLEAVX(&hiM[0], &loM[0], &xs[0], &ys[0], &zs[0], m, qx, qy, qz, tHi, tLo)
		i = m
	}
	maskLERef(hiM[i/8:], loM[i/8:], xs[i:], ys[i:], zs[i:], qx, qy, qz, tHi, tLo)
}

// maskLERef is the scalar reference for MaskDist2LE.
func maskLERef(hiM, loM []uint8, xs, ys, zs []float32, qx, qy, qz, tHi, tLo float32) {
	for b := 0; b*8 < len(xs); b++ {
		var h, l uint8
		for j := 0; j < 8 && b*8+j < len(xs); j++ {
			i := b*8 + j
			dx := xs[i] - qx
			dy := ys[i] - qy
			dz := zs[i] - qz
			d2 := dx*dx + dy*dy + dz*dz
			if d2 <= tHi {
				h |= 1 << uint(j)
			}
			if d2 <= tLo {
				l |= 1 << uint(j)
			}
		}
		hiM[b], loM[b] = h, l
	}
}
