//go:build amd64

package kernels

// SIMD fast paths for the geometry kernels, written in Go assembly so
// the toolchain needs no cgo or external dependencies. Each kernel works
// on float64 lanes of YMM registers and computes every distance with
// geom.Point3.Dist2's per-lane operation sequence (VSUBPD, then VMULPD
// and VADDPD in the fixed ((dx²+dy²)+dz²) association — never FMA), so
// a kernel with a pure-Go form (PairCount, PairFill, MaskLE) returns the
// same bits on either path and dispatch changes speed, never results.
//
// Detection follows internal/nn/kernels: CPUID leaf 1 for AVX plus
// OSXSAVE, then XGETBV for OS-saved YMM state, then leaf 7 for AVX2, so
// a positive answer means the instructions are actually usable. The
// kernels permute and count in integer lanes, which is AVX2, and one
// switch gates them all; every AVX2 core has POPCNT.
var useAVX2 = cpuAVX2()

// cpuAVX2 reports whether AVX2 is usable, implemented in asm_amd64.s
// via CPUID/XGETBV.
func cpuAVX2() bool

// dist2Min16AVX writes d2[i], the float64 squared distance from (qx,
// qy, qz) to (xs[i], ys[i], zs[i]) in geom.Point3.Dist2's association,
// for i in [0, n), and mins[g], the least d2[i] over i ≡ g (mod 16) with
// a NaN never taken (+Inf if every one is NaN), and returns the k-th
// smallest of mins, 1 ≤ k ≤ 16. n must be a positive multiple of 16 and
// every slice must hold at least n elements.
//
//go:noescape
func dist2Min16AVX(d2 *float64, mins *[16]float64, xs, ys, zs *float64, n int, qx, qy, qz float64, k int) float64

// selectLEAVX is SelectLE on d2[0:n], n a positive multiple of 8, idx
// holding n elements and 1 ≤ k ≤ 16.
//
//go:noescape
func selectLEAVX(idx *int32, d2 *float64, n int, t float64, lowMask uint64, k int, top *[17]uint64) int

// compressPerm[m] is the VPERMD control that packs the lanes set in the
// 8-bit mask m, ascending, into the low lanes.
var compressPerm = func() (p [256][8]int32) {
	for m := range p {
		n := 0
		for l := 0; l < 8; l++ {
			if m>>l&1 == 1 {
				p[m][n] = int32(l)
				n++
			}
		}
	}
	return p
}()

// pairCountAVX is PairCount's vector form: per 4-lane float64 step,
// geom.Point3.Dist2's association, VCMPPD LE, the lanes past b1 masked
// off, popcount into fwd[i] and the lane mask subtracted from
// back[j:j+4].
//
//go:noescape
func pairCountAVX(fwd, back *int64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64)

// pairFillAVX is PairFill's vector form: the same distances and masks as
// pairCountAVX, each step's pairs packed by VPERMD (pairPerm) and stored
// four lanes wide.
//
//go:noescape
func pairFillAVX(end *int64, nbr *int32, dist *float64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64, lower bool)

// maskLE64AVX is MaskLE over words full words of 64 distances.
//
//go:noescape
func maskLE64AVX(bits *uint64, d *float64, words int, t float64)

// pairPerm[m] holds the two VPERMD controls that pack the 4-bit mask
// m's lanes, ascending, into the low lanes: the first of four float64
// lanes (as dword pairs), the second of four int32 lanes.
var pairPerm = func() (p [16][16]int32) {
	for m := range p {
		n := int32(0)
		for l := int32(0); l < 4; l++ {
			if m>>l&1 == 1 {
				p[m][2*n], p[m][2*n+1], p[m][8+n] = 2*l, 2*l+1, l
				n++
			}
		}
	}
	return p
}()
