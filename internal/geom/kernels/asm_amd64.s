// SIMD geometry kernels. See asm_amd64.go for the contract: 8 float32
// lanes per step, per-lane operation sequence identical to the scalar
// references (VSUBPS then VMULPS/VADDPS in the fixed ((dx²+dy²)+dz²)
// association, never FMA), so results are bit-identical to the pure-Go
// path and dispatch never changes values.

#include "textflag.h"

// func cpuFeatures() (avx, avx2 bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)

	// Highest supported CPUID leaf must cover leaf 7.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JL   done

	// Leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  done

	// XCR0 bits 1 and 2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVB $1, avx+0(FP)

	// Leaf 7 subleaf 0: EBX bit 5 = AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done
	MOVB $1, avx2+1(FP)

done:
	RET

// func dist2AVX(dst, xs, ys, zs *float32, n int, qx, qy, qz float32)
//
// Per 8-lane step: dx = x - qx (VSUBPS), square (VMULPS), accumulate
// ((dx²+dy²)+dz²) with two VADDPS — the scalar reference's association.
TEXT ·dist2AVX(SB), NOSPLIT, $0-52
	MOVQ dst+0(FP), DI
	MOVQ xs+8(FP), SI
	MOVQ ys+16(FP), R8
	MOVQ zs+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSS qx+40(FP), Y1
	VBROADCASTSS qy+44(FP), Y2
	VBROADCASTSS qz+48(FP), Y3

dloop:
	VMOVUPS (SI), Y4
	VSUBPS  Y1, Y4, Y4
	VMULPS  Y4, Y4, Y4
	VMOVUPS (R8), Y5
	VSUBPS  Y2, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9), Y5
	VSUBPS  Y3, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     dloop

	VZEROUPPER
	RET

// func countLEAVX(xs, ys, zs *float32, n int, qx, qy, qz, t float32) int64
//
// Same distance sequence as dist2AVX, then a masked compare: VCMPPS
// predicate 2 (LE, ordered — NaN compares false, matching Go's <=),
// VMOVMSKPS to a mask byte, POPCNT accumulated into AX.
TEXT ·countLEAVX(SB), NOSPLIT, $0-56
	MOVQ xs+0(FP), SI
	MOVQ ys+8(FP), R8
	MOVQ zs+16(FP), R9
	MOVQ n+24(FP), CX
	VBROADCASTSS qx+32(FP), Y1
	VBROADCASTSS qy+36(FP), Y2
	VBROADCASTSS qz+40(FP), Y3
	VBROADCASTSS t+44(FP), Y0
	XORQ AX, AX

cloop:
	VMOVUPS (SI), Y4
	VSUBPS  Y1, Y4, Y4
	VMULPS  Y4, Y4, Y4
	VMOVUPS (R8), Y5
	VSUBPS  Y2, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9), Y5
	VSUBPS  Y3, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VCMPPS  $2, Y0, Y4, Y5
	VMOVMSKPS Y5, DX
	POPCNTL DX, DX
	ADDQ    DX, AX
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $8, CX
	JNZ     cloop

	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func maskLEAVX(hiM, loM *uint8, xs, ys, zs *float32, n int, qx, qy, qz, tHi, tLo float32)
//
// Same distance sequence as dist2AVX, then two masked compares per
// block: VCMPPS predicate 2 (LE, ordered — NaN compares false, matching
// Go's <=) against tHi and tLo, each VMOVMSKPS'd to one mask byte.
TEXT ·maskLEAVX(SB), NOSPLIT, $0-68
	MOVQ hiM+0(FP), DI
	MOVQ loM+8(FP), BX
	MOVQ xs+16(FP), SI
	MOVQ ys+24(FP), R8
	MOVQ zs+32(FP), R9
	MOVQ n+40(FP), CX
	VBROADCASTSS qx+48(FP), Y1
	VBROADCASTSS qy+52(FP), Y2
	VBROADCASTSS qz+56(FP), Y3
	VBROADCASTSS tHi+60(FP), Y0
	VBROADCASTSS tLo+64(FP), Y6

mkloop:
	VMOVUPS (SI), Y4
	VSUBPS  Y1, Y4, Y4
	VMULPS  Y4, Y4, Y4
	VMOVUPS (R8), Y5
	VSUBPS  Y2, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9), Y5
	VSUBPS  Y3, Y5, Y5
	VMULPS  Y5, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VCMPPS  $2, Y0, Y4, Y5
	VMOVMSKPS Y5, DX
	MOVB    DL, (DI)
	VCMPPS  $2, Y6, Y4, Y5
	VMOVMSKPS Y5, DX
	MOVB    DL, (BX)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	INCQ    DI
	INCQ    BX
	SUBQ    $8, CX
	JNZ     mkloop

	VZEROUPPER
	RET
