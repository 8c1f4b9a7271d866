// Package kernels provides the vectorized primitives behind the
// geometry stage's neighbor searches. In float32, for the voxel grid's
// coordinate mirror: bulk squared distances from a query point to a
// contiguous x/y/z slice triple, and masked ε-radius compare counting —
// the inner loops of internal/spatial's radius scans, which DBSCAN
// issues thousands of times per frame. In float64, for the small-cloud
// path of internal/spatial's KNNAll: exact squared distances with the
// minimum of 16 strided groups and the k-th smallest of those minima
// (Dist2Min16), and the distances under a bound, ranked (SelectLE).
//
// Like internal/nn/kernels, the package keeps a pure-Go reference
// implementation of every float32 kernel and dispatches to assembly
// micro-kernels only when CPUID (and the OS's YMM state handling) says
// AVX2 is usable. The assembly follows the same bit-identical
// accumulation contract: per-lane operation sequence equal to the
// reference (VSUBPS/VMULPS/VADDPS with a fixed association, never FMA),
// so every kernel produces bit-identical results on every path and the
// dispatch changes speed, not values. The float64 kernels exist only in
// assembly (their scalar references live in the tests): their one
// caller takes the small-cloud path only while Vectorized reports true.
//
// The float32 results are computed in float32. Callers that need exact
// float64 semantics (the voxel grid's filter-and-refine queries) bound
// the float32 error analytically and re-check only candidates inside the
// uncertainty band; see internal/spatial. The float64 distances are
// geom.Point3.Dist2's bits.
package kernels

// vectorized gates the assembly fast paths. It is set once at init from
// CPUID and may be overridden by SetVectorized for baseline benchmarks
// and equivalence tests; it is not synchronized, so toggling is only
// safe when no kernel calls are in flight (tests and benchmarks toggle
// from a single goroutine before spawning work).
var vectorized = useAVX2

// Vectorized reports whether the assembly fast paths are in use.
func Vectorized() bool { return vectorized }

// SetVectorized forces the assembly fast paths on or off and returns the
// previous setting. Enabling on hardware without AVX2 support downgrades
// to the reference implementations rather than faulting.
func SetVectorized(on bool) (prev bool) {
	prev = vectorized
	vectorized = on && useAVX2
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

// Dist2Min16 writes into d2[i] the float64 squared distance from the
// query point (qx, qy, qz) to (xs[i], ys[i], zs[i]), bit for bit what
// geom.Point3.Dist2 returns for the pair: ((dx²+dy²)+dz²), each
// operation rounded, never fused. It writes into mins[g] the least d2[i]
// over the indices i ≡ g (mod 16); a NaN distance is never taken, and a
// group with no other distance is +Inf. It returns the k-th smallest of
// mins, 1 ≤ k ≤ 16: the largest with fewer than k others strictly below
// it. The minima are distances of distinct points, so k points lie
// within it, and it bounds the k-th smallest distance.
//
// All four slices share a length, a positive multiple of 16: pad with
// NaN coordinates, whose distances are never a minimum and never ≤ a
// SelectLE bound. It has only the vector form: call it only while
// Vectorized reports true.
func Dist2Min16(d2, xs, ys, zs []float64, qx, qy, qz float64, mins *[16]float64, k int) float64 {
	n := len(d2)
	if len(xs) != n || len(ys) != n || len(zs) != n || n == 0 || n%16 != 0 {
		panic("kernels: Dist2Min16 needs equal lengths, a positive multiple of 16")
	}
	if k < 1 || k > 16 {
		panic("kernels: Dist2Min16 needs 1 ≤ k ≤ 16")
	}
	if !vectorized {
		panic("kernels: Dist2Min16 without the vector unit")
	}
	return dist2Min16AVX(&d2[0], mins, &xs[0], &ys[0], &zs[0], n, qx, qy, qz, k)
}

// SelectLE picks the distances in d2 that are ≤ t and orders up to 16
// of them. It writes their indices, ascending, into idx and returns how
// many there are, m; a NaN is never ≤ t, matching Go's <=. When 1 ≤ m ≤
// 16 it also ranks their keys — a key is Float64bits(d2[i]) with the
// bits of lowMask replaced by i, so keys order as the distances do
// above those bits, ties broken by index. The key of rank r (from 0)
// goes to top[r], and all ones to top[k] when m ≤ k, so top[k-1] and
// top[k] are the k-th and (k+1)-th smallest; past top[k] is scratch.
//
// len(d2) is a positive multiple of 8, idx holds at least len(d2)
// elements (it is written past m), 1 ≤ k ≤ 16, lowMask is 2ᵇ-1 with
// every index SelectLE can pick below 2ᵇ, and no distance ≤ t is
// negative. It has only the vector form: call it only while Vectorized
// reports true.
func SelectLE(idx []int32, d2 []float64, t float64, lowMask uint64, k int, top *[17]uint64) int {
	n := len(d2)
	if n == 0 || n%8 != 0 || len(idx) < n {
		panic("kernels: SelectLE needs a positive multiple of 8 distances and as many indices")
	}
	if k < 1 || k > 16 || lowMask&(lowMask+1) != 0 {
		panic("kernels: SelectLE needs 1 ≤ k ≤ 16 and a low mask 2ᵇ-1")
	}
	if !vectorized {
		panic("kernels: SelectLE without the vector unit")
	}
	return selectLEAVX(&idx[0], &d2[0], n, t, lowMask, k, top)
}
