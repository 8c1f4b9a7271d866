//go:build amd64

package kernels

// SIMD fast paths for the micro-kernels, written in Go assembly so the
// toolchain needs no cgo or external dependencies. The vector kernels
// keep the package's accumulation contract exactly: lanes run along the
// packed panel (the j dimension), so each SIMD lane owns one output
// element and accumulates bias-first in strictly ascending k with a
// separate IEEE multiply and add per step (VMULPS+VADDPS, never FMA).
// Lane-wise that is the same operation sequence as the scalar reference,
// so the assembly, pure-Go, and naive paths all produce bit-identical
// results and the dispatch below never changes values, only speed.
//
// useAVX gates the float32 kernel (AVX: 8-lane VBROADCASTSS/VMULPS/
// VADDPS on YMM); useAVX2 gates the int8 kernel (AVX2: VPMOVSXBD,
// VPBROADCASTD, VPMULLD, VPADDD — 32-bit wrapping arithmetic, identical
// to Go's int32 semantics). Detection checks CPUID and that the OS
// saves YMM state (OSXSAVE + XCR0), so a positive answer means the
// instructions are actually usable.
var useAVX, useAVX2 = cpuFeatures()

// SetAVX turns the float tile's AVX path off, or back on where the CPU
// has it, and returns the previous setting. It is the tests' handle on
// the CPUID fork: the pure-Go tile is all an arm64 pole runs, and the
// equivalence tests pin both paths to the same references.
func SetAVX(on bool) (prev bool) {
	avx, _ := cpuFeatures()
	prev, useAVX = useAVX, on && avx
	return prev
}

// cpuFeatures reports AVX and AVX2 availability, implemented in
// asm_amd64.s via CPUID/XGETBV.
func cpuFeatures() (avx, avx2 bool)

// micro8x8avx computes an 8-row × 8-column C tile against a packed
// panel: c[i][j] = bias[j] + Σ_k a[i][k]·b_panel[k][j] for i in [0,8),
// j in [0,8), with C rows at c[i·ldc] and A rows at a[i·lda] (strides in
// elements). A non-nil ep points at column j of GemmPacked's epilogue,
// whose four rows lie ldep elements apart, and each output leaves through
// it. k must be ≥ 0; the tile must be fully in-bounds (callers guarantee
// 8 rows and a full panel).
//
//go:noescape
func micro8x8avx(k int, a *float32, lda int, panel *float32, bias *float32, c *float32, ldc int, ep *float32, ldep int)

// micro4x8iavx is the int8 counterpart on a 4-row tile: 8 int32 lanes
// per row, a-values sign-extended and zero-point-shifted before the
// 32-bit multiply, exactly like the scalar kernel.
//
//go:noescape
func micro4x8iavx(k int, aZero int32, a *int8, lda int, panel *int8, c *int32, ldc int)

// copyRowsAVX copies rows segments of n ≥ 8 floats from src+r·lds to
// dst+r·ldd (strides in elements). Callers bounds-check both spans.
//
//go:noescape
func copyRowsAVX(dst *float32, ldd int, src *float32, lds int, rows, n int)

// maxPoolRowAVX pools one output row of ow pixels: c (a positive
// multiple of 8) channels per pixel, input rows lds elements apart.
// Callers bounds-check both spans.
//
//go:noescape
func maxPoolRowAVX(dst *float32, src *float32, ow, c, lds int)
