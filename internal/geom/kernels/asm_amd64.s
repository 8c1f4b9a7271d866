// SIMD geometry kernels. See asm_amd64.go for the contract: float64
// lanes, every distance in geom.Point3.Dist2's association (VSUBPD, then
// VMULPD and VADDPD in the fixed ((dx²+dy²)+dz²) order, never FMA), so
// each is bit for bit the Dist2 of its pair.

#include "textflag.h"

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

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

	// Leaf 7 subleaf 0: EBX bit 5 = AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

DATA posInf64<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf64<>(SB), RODATA|NOPTR, $8

// func dist2Min16AVX(d2 *float64, mins *[16]float64, xs, ys, zs *float64, n int, qx, qy, qz float64, k int) float64
//
// Per 4-lane float64 step: qx - x (VSUBPD; the negation of x - qx, so
// the same square), square (VMULPD), accumulate ((dx²+dy²)+dz²) with
// two VADDPD — geom.Point3.Dist2's association, never FMA. Four steps
// cover 16 points, and step v's running VMINPD, from +Inf, holds groups
// 4v..4v+3. VMINPD returns its second source when either is NaN, and
// the running minimum is that source, so a NaN distance is never taken.
//
// Then the k-th smallest minimum. A minimum's rank is how many of the
// 16 are strictly below it: for each minimum a in turn, broadcast,
// VCMPPD predicate 1 (LT, ordered) against all 16 gives -1 in every lane
// above a, and VPSUBQ adds it to that lane's count. The minima ranked
// below k are exactly those ≤ the k-th smallest, so it is their
// maximum: VPCMPGTQ keeps them, VANDPD zeroes the rest (every minimum is
// ≥ 0) and VMAXPD reduces.

// RANK broadcasts lane imm of src, one of the minima Y12-Y15, and adds
// 1 to the count in Y4-Y7 of every minimum above it.
#define RANK(src, imm) \
	VPERMPD imm, src, Y8      \
	VCMPPD  $1, Y12, Y8, Y9   \
	VPSUBQ  Y9, Y4, Y4        \
	VCMPPD  $1, Y13, Y8, Y9   \
	VPSUBQ  Y9, Y5, Y5        \
	VCMPPD  $1, Y14, Y8, Y9   \
	VPSUBQ  Y9, Y6, Y6        \
	VCMPPD  $1, Y15, Y8, Y9   \
	VPSUBQ  Y9, Y7, Y7

TEXT ·dist2Min16AVX(SB), NOSPLIT, $0-88
	MOVQ d2+0(FP), DI
	MOVQ mins+8(FP), DX
	MOVQ xs+16(FP), SI
	MOVQ ys+24(FP), R8
	MOVQ zs+32(FP), R9
	MOVQ n+40(FP), CX
	VBROADCASTSD qx+48(FP), Y0
	VBROADCASTSD qy+56(FP), Y1
	VBROADCASTSD qz+64(FP), Y2
	VBROADCASTSD posInf64<>(SB), Y12
	VMOVAPD      Y12, Y13
	VMOVAPD      Y12, Y14
	VMOVAPD      Y12, Y15

mloop:
	VSUBPD  (SI), Y0, Y3
	VMULPD  Y3, Y3, Y3
	VSUBPD  (R8), Y1, Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  (R9), Y2, Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)
	VMINPD  Y12, Y3, Y12

	VSUBPD  32(SI), Y0, Y5
	VMULPD  Y5, Y5, Y5
	VSUBPD  32(R8), Y1, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y5, Y5
	VSUBPD  32(R9), Y2, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y5, Y5
	VMOVUPD Y5, 32(DI)
	VMINPD  Y13, Y5, Y13

	VSUBPD  64(SI), Y0, Y7
	VMULPD  Y7, Y7, Y7
	VSUBPD  64(R8), Y1, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y7, Y7
	VSUBPD  64(R9), Y2, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y7, Y7
	VMOVUPD Y7, 64(DI)
	VMINPD  Y14, Y7, Y14

	VSUBPD  96(SI), Y0, Y9
	VMULPD  Y9, Y9, Y9
	VSUBPD  96(R8), Y1, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y9, Y9
	VSUBPD  96(R9), Y2, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, 96(DI)
	VMINPD  Y15, Y9, Y15

	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, DI
	SUBQ $16, CX
	JNZ  mloop

	VMOVUPD Y12, (DX)
	VMOVUPD Y13, 32(DX)
	VMOVUPD Y14, 64(DX)
	VMOVUPD Y15, 96(DX)

	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	RANK(Y12, $0x00)
	RANK(Y12, $0x55)
	RANK(Y12, $0xaa)
	RANK(Y12, $0xff)
	RANK(Y13, $0x00)
	RANK(Y13, $0x55)
	RANK(Y13, $0xaa)
	RANK(Y13, $0xff)
	RANK(Y14, $0x00)
	RANK(Y14, $0x55)
	RANK(Y14, $0xaa)
	RANK(Y14, $0xff)
	RANK(Y15, $0x00)
	RANK(Y15, $0x55)
	RANK(Y15, $0xaa)
	RANK(Y15, $0xff)

	VPBROADCASTQ k+72(FP), Y8
	VPCMPGTQ     Y4, Y8, Y4
	VANDPD       Y4, Y12, Y12
	VPCMPGTQ     Y5, Y8, Y5
	VANDPD       Y5, Y13, Y13
	VPCMPGTQ     Y6, Y8, Y6
	VANDPD       Y6, Y14, Y14
	VPCMPGTQ     Y7, Y8, Y7
	VANDPD       Y7, Y15, Y15
	VMAXPD       Y13, Y12, Y12
	VMAXPD       Y15, Y14, Y14
	VMAXPD       Y14, Y12, Y12
	VEXTRACTF128 $1, Y12, X13
	VMAXPD       X13, X12, X12
	VPERMILPD    $1, X12, X13
	VMAXPD       X13, X12, X12
	VMOVSD       X12, ret+80(FP)
	VZEROUPPER
	RET

// func selectLEAVX(idx *int32, d2 *float64, n int, t float64, lowMask uint64, k int, top *[17]uint64) int
//
// Compress, per 8 distances: two VCMPPD predicate 13 (t GE d, ordered —
// NaN compares false, matching Go's <=) VMOVMSKPD'd into one byte, whose
// entry in compressPerm is the VPERMD control that packs the selected
// lanes of the running index vector to the front. All 8 lanes are
// stored at the running count, which then grows by the byte's POPCNT;
// the unselected lanes are overwritten by the next store or lie past
// the count.
//
// With at most 16 selected: each one's key into the frame, then its
// rank — for each key in turn, broadcast, VPCMPGTQ against all 16 (-1
// in every lane above it; every key is below 2⁶³, so the signed compare
// orders them) and VPSUBQ into the lane's count — into the frame above
// the keys, and each key to top[rank], top[k] first set to all ones.
TEXT ·selectLEAVX(SB), NOSPLIT, $256-64
	MOVQ         idx+0(FP), DI
	MOVQ         d2+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD t+24(FP), Y0
	LEAQ         ·compressPerm(SB), R10
	VMOVDQU      iota8<>(SB), Y1
	VPBROADCASTD eight32<>(SB), Y2
	MOVQ         SI, R11
	XORQ         AX, AX

sloop:
	VCMPPD    $13, (SI), Y0, Y3
	VMOVMSKPD Y3, BX
	VCMPPD    $13, 32(SI), Y0, Y4
	VMOVMSKPD Y4, DX
	SHLL      $4, DX
	ORL       DX, BX
	MOVL      BX, DX
	SHLL      $5, DX
	VMOVDQU   (R10)(DX*1), Y5
	VPERMD    Y1, Y5, Y6
	VMOVDQU   Y6, (DI)(AX*4)
	POPCNTL   BX, BX
	ADDQ      BX, AX
	VPADDD    Y2, Y1, Y1
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       sloop

	MOVQ  AX, ret+56(FP)
	TESTQ AX, AX
	JZ    sdone
	CMPQ  AX, $16
	JA    sdone

	MOVQ lowMask+32(FP), R8
	NOTQ R8
	XORQ CX, CX

skeys:
	MOVLQSX (DI)(CX*4), DX
	MOVQ    (R11)(DX*8), BX
	ANDQ    R8, BX
	ORQ     DX, BX
	MOVQ    BX, (SP)(CX*8)
	INCQ    CX
	CMPQ    CX, AX
	JB      skeys

	VMOVDQU (SP), Y8
	VMOVDQU 32(SP), Y9
	VMOVDQU 64(SP), Y10
	VMOVDQU 96(SP), Y11
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	XORQ    CX, CX

srank:
	VPBROADCASTQ (SP)(CX*8), Y3
	VPCMPGTQ     Y3, Y8, Y12
	VPSUBQ       Y12, Y4, Y4
	VPCMPGTQ     Y3, Y9, Y12
	VPSUBQ       Y12, Y5, Y5
	VPCMPGTQ     Y3, Y10, Y12
	VPSUBQ       Y12, Y6, Y6
	VPCMPGTQ     Y3, Y11, Y12
	VPSUBQ       Y12, Y7, Y7
	INCQ         CX
	CMPQ         CX, AX
	JB           srank
	VMOVDQU      Y4, 128(SP)
	VMOVDQU      Y5, 160(SP)
	VMOVDQU      Y6, 192(SP)
	VMOVDQU      Y7, 224(SP)

	MOVQ top+48(FP), DI
	MOVQ k+40(FP), R8
	MOVQ $-1, BX
	MOVQ BX, (DI)(R8*8)
	XORQ CX, CX

sscatter:
	MOVQ 128(SP)(CX*8), DX
	MOVQ (SP)(CX*8), BX
	MOVQ BX, (DI)(DX*8)
	INCQ CX
	CMPQ CX, AX
	JB   sscatter

sdone:
	VZEROUPPER
	RET

DATA iota8<>+0(SB)/4, $0
DATA iota8<>+4(SB)/4, $1
DATA iota8<>+8(SB)/4, $2
DATA iota8<>+12(SB)/4, $3
DATA iota8<>+16(SB)/4, $4
DATA iota8<>+20(SB)/4, $5
DATA iota8<>+24(SB)/4, $6
DATA iota8<>+28(SB)/4, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $32

DATA eight32<>+0(SB)/4, $8
GLOBL eight32<>(SB), RODATA|NOPTR, $4


DATA iota4q<>+0(SB)/8, $0
DATA iota4q<>+8(SB)/8, $1
DATA iota4q<>+16(SB)/8, $2
DATA iota4q<>+24(SB)/8, $3
GLOBL iota4q<>(SB), RODATA|NOPTR, $32

DATA four64<>+0(SB)/8, $4
GLOBL four64<>(SB), RODATA|NOPTR, $8

// PAIRD2 leaves in Y4 the squared distances from the point broadcast in
// Y1-Y3 to points j..j+3 (j in CX) and in Y5 the lanes with d2 ≤ r2
// (Y0) and j+l < b1 (Y15; the running lane indices are Y6): x_i - x_j
// (VSUBPD), square (VMULPD), ((dx²+dy²)+dz²) with two VADDPD — the
// association of geom.Point3.Dist2, never FMA — then VCMPPD predicate 2
// (LE, ordered: NaN compares false, matching Go's <=) and VPCMPGTQ for
// the lanes still inside the span.
#define PAIRD2 \
	VSUBPD   (SI)(CX*8), Y1, Y4 \
	VMULPD   Y4, Y4, Y4         \
	VSUBPD   (R8)(CX*8), Y2, Y5 \
	VMULPD   Y5, Y5, Y5         \
	VADDPD   Y5, Y4, Y4         \
	VSUBPD   (R9)(CX*8), Y3, Y5 \
	VMULPD   Y5, Y5, Y5         \
	VADDPD   Y5, Y4, Y4         \
	VCMPPD   $2, Y0, Y4, Y5     \
	VPCMPGTQ Y6, Y15, Y7        \
	VPAND    Y7, Y5, Y5

// func pairCountAVX(fwd, back *int64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64)
//
// For each i of the block: broadcast its coordinates, run j from
// max(b0, i+1) to b1 four lanes at a time, add the POPCNT of each lane
// mask to a running count added to fwd[i] after the row, and subtract
// the mask (-1 per set lane) from back[j:j+4].
TEXT ·pairCountAVX(SB), NOSPLIT, $0-80
	MOVQ         fwd+0(FP), BX
	MOVQ         back+8(FP), DI
	MOVQ         xs+16(FP), SI
	MOVQ         ys+24(FP), R8
	MOVQ         zs+32(FP), R9
	MOVQ         a0+40(FP), R10
	MOVQ         a1+48(FP), R11
	MOVQ         b0+56(FP), R12
	VBROADCASTSD r2+72(FP), Y0
	VPBROADCASTQ b1+64(FP), Y15
	VMOVDQU      iota4q<>(SB), Y14
	VPBROADCASTQ four64<>(SB), Y13
	MOVQ         b1+64(FP), R13

crow:
	VBROADCASTSD (SI)(R10*8), Y1
	VBROADCASTSD (R8)(R10*8), Y2
	VBROADCASTSD (R9)(R10*8), Y3
	LEAQ         1(R10), CX
	CMPQ         CX, R12
	CMOVQLT      R12, CX
	VMOVQ        CX, X6
	VPBROADCASTQ X6, Y6
	VPADDQ       Y14, Y6, Y6
	XORQ         AX, AX
	CMPQ         CX, R13
	JGE          cnext

cstep:
	PAIRD2
	VMOVMSKPD Y5, DX
	POPCNTL   DX, DX
	ADDQ      DX, AX
	VMOVDQU   (DI)(CX*8), Y8
	VPSUBQ    Y5, Y8, Y8
	VMOVDQU   Y8, (DI)(CX*8)
	VPADDQ    Y13, Y6, Y6
	ADDQ      $4, CX
	CMPQ      CX, R13
	JLT       cstep

	ADDQ AX, (BX)(R10*8)

cnext:
	INCQ R10
	CMPQ R10, R11
	JLT  crow

	VZEROUPPER
	RET

// func pairFillAVX(end *int64, nbr *int32, dist *float64, xs, ys, zs *float64, a0, a1, b0, b1 int, r2 float64, lower bool)
//
// The rows and lanes of pairCountAVX — j in [max(b0, i+1), b1), or with
// lower in [b0, min(b1, i)), so Y15 is set per row — each step's pairs
// packed to the front: the step's mask picks a row of pairPerm, whose
// first VPERMD control moves the selected distances' qword lanes down
// and whose second moves the selected int32 j+l (Y12, running with the
// 64-bit lane indices) down. All four distances and j's are stored at
// end[i], held in R11 for the row, which then advances by the mask's
// POPCNT: the lanes past it are overwritten by the next step or lie in
// the row's pad.
TEXT ·pairFillAVX(SB), NOSPLIT, $0-89
	MOVQ         end+0(FP), DI
	MOVQ         nbr+8(FP), BX
	MOVQ         dist+16(FP), R14
	MOVQ         xs+24(FP), SI
	MOVQ         ys+32(FP), R8
	MOVQ         zs+40(FP), R9
	MOVQ         a0+48(FP), R10
	VBROADCASTSD r2+80(FP), Y0
	VMOVDQU      iota4q<>(SB), Y14
	VPBROADCASTQ four64<>(SB), Y13
	VMOVDQU      iota8<>(SB), Y10
	VPBROADCASTD four32<>(SB), Y11
	LEAQ         ·pairPerm(SB), R12

frow:
	VBROADCASTSD (SI)(R10*8), Y1
	VBROADCASTSD (R8)(R10*8), Y2
	VBROADCASTSD (R9)(R10*8), Y3
	MOVQ         b0+64(FP), CX
	MOVQ         b1+72(FP), R13
	CMPB         lower+88(FP), $0
	JNE          flower
	LEAQ         1(R10), DX
	CMPQ         DX, CX
	CMOVQGT      DX, CX
	JMP          franged

flower:
	CMPQ    R10, R13
	CMOVQLT R10, R13

franged:
	VMOVQ        R13, X15
	VPBROADCASTQ X15, Y15
	VMOVQ        CX, X6
	VPBROADCASTQ X6, Y6
	VPADDQ       Y14, Y6, Y6
	VPBROADCASTD X6, Y12
	VPADDD       Y10, Y12, Y12
	MOVQ         (DI)(R10*8), R11
	CMPQ         CX, R13
	JGE          fnext

fstep:
	PAIRD2
	VMOVMSKPD Y5, AX
	MOVQ      AX, DX
	SHLQ      $6, DX
	VMOVDQU   (R12)(DX*1), Y8
	VPERMD    Y4, Y8, Y9
	VMOVUPD   Y9, (R14)(R11*8)
	VMOVDQU   32(R12)(DX*1), Y8
	VPERMD    Y12, Y8, Y9
	VMOVDQU   X9, (BX)(R11*4)
	POPCNTL   AX, AX
	ADDQ      AX, R11
	VPADDQ    Y13, Y6, Y6
	VPADDD    Y11, Y12, Y12
	ADDQ      $4, CX
	CMPQ      CX, R13
	JLT       fstep

fnext:
	MOVQ R11, (DI)(R10*8)
	INCQ R10
	CMPQ R10, a1+56(FP)
	JLT  frow

	VZEROUPPER
	RET

DATA four32<>+0(SB)/4, $4
GLOBL four32<>(SB), RODATA|NOPTR, $4

// MASK4 compares distances 4g..4g+3 of the word with t: VCMPPD
// predicate 13 (t GE d, ordered: NaN compares false, matching Go's <=),
// VMOVMSKPD, and the four bits shifted to 4g and ORed into AX.
#define MASK4(g) \
	VCMPPD    $13, (32*g)(SI), Y0, Y1 \
	VMOVMSKPD Y1, DX                  \
	SHLQ      $(4*g), DX              \
	ORQ       DX, AX

// func maskLE64AVX(bits *uint64, d *float64, words int, t float64)
TEXT ·maskLE64AVX(SB), NOSPLIT, $0-32
	MOVQ         bits+0(FP), DI
	MOVQ         d+8(FP), SI
	MOVQ         words+16(FP), CX
	VBROADCASTSD t+24(FP), Y0

wloop:
	XORQ AX, AX
	MASK4(0)
	MASK4(1)
	MASK4(2)
	MASK4(3)
	MASK4(4)
	MASK4(5)
	MASK4(6)
	MASK4(7)
	MASK4(8)
	MASK4(9)
	MASK4(10)
	MASK4(11)
	MASK4(12)
	MASK4(13)
	MASK4(14)
	MASK4(15)
	MOVQ AX, (DI)
	ADDQ $512, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  wloop

	VZEROUPPER
	RET
