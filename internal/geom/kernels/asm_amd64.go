//go:build amd64

package kernels

// SIMD fast paths for the geometry kernels, written in Go assembly so
// the toolchain needs no cgo or external dependencies. Each kernel
// processes 8 float32 lanes per step on YMM registers with the exact
// per-lane operation sequence of its scalar reference (VSUBPS, then
// VMULPS and VADDPS in the fixed ((dx²+dy²)+dz²) association — never
// FMA), so the assembly and pure-Go paths produce bit-identical values
// and dispatch never changes results, only speed.
//
// Detection follows internal/nn/kernels: CPUID leaf 1 for AVX plus
// OSXSAVE, then XGETBV for OS-saved YMM state, so a positive answer
// means the instructions are actually usable. (Leaf 7's AVX2 bit is
// probed too for symmetry, but these kernels only need AVX; POPCNT is
// implied by any AVX-era core.)
var useAVX, useAVX2 = cpuFeatures()

// cpuFeatures reports AVX and AVX2 availability, implemented in
// asm_amd64.s via CPUID/XGETBV.
func cpuFeatures() (avx, avx2 bool)

// dist2AVX computes dst[i] = ((xs[i]-qx)²+(ys[i]-qy)²)+(zs[i]-qz)² for
// i in [0, n); n must be a positive multiple of 8 and all slices must
// have at least n elements.
//
//go:noescape
func dist2AVX(dst, xs, ys, zs *float32, n int, qx, qy, qz float32)

// countLEAVX returns how many of the n squared distances — computed
// exactly as dist2AVX computes them — are ≤ t, via a masked VCMPPS(LE)
// compare and per-block popcount. n must be a positive multiple of 8.
//
//go:noescape
func countLEAVX(xs, ys, zs *float32, n int, qx, qy, qz, t float32) int64

// maskLEAVX writes, for each 8-lane block of the n squared distances —
// computed exactly as dist2AVX computes them — one byte into hiM with
// bit j set iff distance 8b+j ≤ tHi, and likewise into loM against tLo.
// n must be a positive multiple of 8.
//
//go:noescape
func maskLEAVX(hiM, loM *uint8, xs, ys, zs *float32, n int, qx, qy, qz, tHi, tLo float32)
