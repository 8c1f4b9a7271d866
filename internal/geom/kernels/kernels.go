// Package kernels provides the vectorized float64 primitives behind the
// geometry stage's neighbor searches: for internal/cluster's neighbour
// graph, the close pairs of a block against a span (PairCount,
// PairFill) and a distance row's bitmask under a bound (MaskLE); for the
// small-cloud path of internal/spatial's KNNAll, exact squared distances
// with the minimum of 16 strided groups and the k-th smallest of those
// minima (Dist2Min16), and the distances under a bound, ranked
// (SelectLE). Every distance is geom.Point3.Dist2's bits: ((dx²+dy²)+dz²),
// each operation rounded, never fused.
//
// Like internal/nn/kernels, the package dispatches to assembly only
// when CPUID (and the OS's YMM state handling) says AVX2 is usable.
// PairCount, PairFill and MaskLE also have a pure-Go form, which is what
// runs without AVX2 (arm64, or SetVectorized off). It rounds each
// product and the inner sum explicitly, so no compiler fuses them and it
// returns the assembly's bits on every architecture: the dispatch
// changes speed, not values. Dist2Min16 and
// SelectLE exist only in assembly (their scalar references live in the
// tests): their one caller takes the small-cloud path only while
// Vectorized reports true.
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
// to the pure-Go forms rather than faulting.
func SetVectorized(on bool) (prev bool) {
	prev = vectorized
	vectorized = on && useAVX2
	return prev
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
