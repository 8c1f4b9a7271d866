//go:build !amd64

package kernels

// Non-amd64 builds run the pure-Go reference kernels only. The
// constants compile the assembly dispatch away entirely.
const (
	useAVX  = false
	useAVX2 = false
)

func dist2AVX(dst, xs, ys, zs *float32, n int, qx, qy, qz float32) {
	panic("kernels: no assembly on this architecture")
}

func countLEAVX(xs, ys, zs *float32, n int, qx, qy, qz, t float32) int64 {
	panic("kernels: no assembly on this architecture")
}

func maskLEAVX(hiM, loM *uint8, xs, ys, zs *float32, n int, qx, qy, qz, tHi, tLo float32) {
	panic("kernels: no assembly on this architecture")
}
