//go:build !amd64

package kernels

// Non-amd64 builds run the pure-Go kernels only. The constant compiles
// the assembly dispatch away entirely.
const useAVX2 = false

func dist2Min16AVX(d2 *float64, mins *[16]float64, xs, ys, zs *float64, n int, qx, qy, qz float64, k int) float64 {
	panic("kernels: no assembly on this architecture")
}

func selectLEAVX(idx *int32, d2 *float64, n int, t float64, lowMask uint64, k int, top *[17]uint64) int {
	panic("kernels: no assembly on this architecture")
}

func pairCountAVX(fwd, back *int64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64) {
	panic("kernels: no assembly on this architecture")
}

func pairFillAVX(end *int64, nbr *int32, dist *float64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64, lower bool) {
	panic("kernels: no assembly on this architecture")
}

func maskLE64AVX(bits *uint64, d *float64, words int, t float64) {
	panic("kernels: no assembly on this architecture")
}
