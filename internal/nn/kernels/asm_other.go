//go:build !amd64

package kernels

// Non-amd64 builds run the pure-Go micro-kernels only. The constants
// compile the assembly dispatch away entirely.
const (
	useAVX  = false
	useAVX2 = false
)

// SetAVX is the tests' handle on the CPUID fork; without assembly the
// pure-Go tile is the only path, so it changes nothing and reports false.
func SetAVX(on bool) (prev bool) { return false }

func micro8x8avx(k int, a *float32, lda int, panel *float32, bias *float32, c *float32, ldc int, ep *float32, ldep int) {
	panic("kernels: no assembly on this architecture")
}

func micro4x8iavx(k int, aZero int32, a *int8, lda int, panel *int8, c *int32, ldc int) {
	panic("kernels: no assembly on this architecture")
}

func copyRowsAVX(dst *float32, ldd int, src *float32, lds int, rows, n int) {
	panic("kernels: no assembly on this architecture")
}

func maxPoolRowAVX(dst *float32, src *float32, ow, c, lds int) {
	panic("kernels: no assembly on this architecture")
}
