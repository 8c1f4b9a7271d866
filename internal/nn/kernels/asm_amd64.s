// SIMD micro-kernels. See asm_amd64.go for the contract: lanes run
// along j (the packed panel), each lane accumulates its own output
// element in ascending k with separate multiply and add, so results are
// bit-identical to the pure-Go and naive paths.

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

// func micro8x8avx(k int, a *float32, lda int, panel *float32, bias *float32, c *float32, ldc int, ep *float32, ldep int)
//
// Eight YMM accumulators, one per C row, all starting from the bias; per
// k step: one panel load, eight broadcast/mul/add triples. Strides arrive
// in elements and are scaled to bytes here; rows 0..7 are addressed via
// {1,2,3,4,5,7}×stride index registers (row 6 is 3×stride scaled by 2).
// A non-nil ep adds the epilogue before the store: per lane
// VSUBPS mean, VMULPS invStd, VMULPS gamma, VADDPS beta, then VMAXPS
// against +0, which is Rectify (v > +0 ? v : +0, so NaN and −0 give +0).
TEXT ·micro8x8avx(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), DX
	MOVQ panel+24(FP), BX
	MOVQ bias+32(FP), DI
	MOVQ ldc+48(FP), SI
	SHLQ $2, DX               // lda in bytes
	SHLQ $2, SI               // ldc in bytes
	LEAQ (DX)(DX*2), R8       // 3·lda
	LEAQ (DX)(DX*4), R9      // 5·lda
	LEAQ (R8)(DX*4), R10     // 7·lda
	LEAQ (SI)(SI*2), R11     // 3·ldc
	LEAQ (SI)(SI*4), R12     // 5·ldc
	LEAQ (R11)(SI*4), R13    // 7·ldc

	// Seed every row's accumulators with the bias.
	VMOVUPS (DI), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	MOVQ c+40(FP), DI

	TESTQ CX, CX
	JZ    epilogue

loop:
	VMOVUPS (BX), Y8

	VBROADCASTSS (AX), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y0, Y0

	VBROADCASTSS (AX)(DX*1), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y1, Y1

	VBROADCASTSS (AX)(DX*2), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y2, Y2

	VBROADCASTSS (AX)(R8*1), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y3, Y3

	VBROADCASTSS (AX)(DX*4), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y4, Y4

	VBROADCASTSS (AX)(R9*1), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y5, Y5

	VBROADCASTSS (AX)(R8*2), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y6, Y6

	VBROADCASTSS (AX)(R10*1), Y9
	VMULPS Y8, Y9, Y9
	VADDPS Y9, Y7, Y7

	ADDQ $32, BX              // next packed panel line (NR floats)
	ADDQ $4, AX               // next a column
	DECQ CX
	JNZ  loop

epilogue:
	MOVQ  ep+56(FP), AX
	TESTQ AX, AX
	JZ    store
	MOVQ  ldep+64(FP), DX
	SHLQ  $2, DX              // ldep in bytes: the rows mean, invStd, gamma, beta
	LEAQ  (DX)(DX*2), R8
	VMOVUPS (AX), Y8          // mean
	VMOVUPS (AX)(DX*1), Y9    // invStd
	VMOVUPS (AX)(DX*2), Y10   // gamma
	VMOVUPS (AX)(R8*1), Y11   // beta
	VXORPS  Y12, Y12, Y12     // +0

#define EPILOGUE(Y) \
	VSUBPS Y8, Y, Y; \
	VMULPS Y9, Y, Y; \
	VMULPS Y, Y10, Y; \
	VADDPS Y11, Y, Y; \
	VMAXPS Y12, Y, Y

	EPILOGUE(Y0)
	EPILOGUE(Y1)
	EPILOGUE(Y2)
	EPILOGUE(Y3)
	EPILOGUE(Y4)
	EPILOGUE(Y5)
	EPILOGUE(Y6)
	EPILOGUE(Y7)

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(R11*1)
	VMOVUPS Y4, (DI)(SI*4)
	VMOVUPS Y5, (DI)(R12*1)
	VMOVUPS Y6, (DI)(R11*2)
	VMOVUPS Y7, (DI)(R13*1)
	VZEROUPPER
	RET

// func micro4x8iavx(k int, aZero int32, a *int8, lda int, panel *int8, c *int32, ldc int)
//
// Four int32×8 accumulators. Per k step the 8 panel bytes sign-extend to
// dwords once; each row's a byte sign-extends in a GP register, shifts by
// the zero point, broadcasts, then VPMULLD/VPADDD — 32-bit wrapping ops,
// exactly Go's int32 arithmetic.
TEXT ·micro4x8iavx(SB), NOSPLIT, $0-56
	MOVQ  k+0(FP), CX
	MOVL  aZero+8(FP), R10
	MOVQ  a+16(FP), AX
	MOVQ  lda+24(FP), DX
	MOVQ  panel+32(FP), BX
	MOVQ  c+40(FP), DI
	MOVQ  ldc+48(FP), SI
	SHLQ  $2, SI              // ldc in bytes (c is int32); lda stays in bytes (a is int8)
	LEAQ  (DX)(DX*2), R8      // 3·lda
	LEAQ  (SI)(SI*2), R9      // 3·ldc

	VMOVDQU (DI), Y0
	VMOVDQU (DI)(SI*1), Y1
	VMOVDQU (DI)(SI*2), Y2
	VMOVDQU (DI)(R9*1), Y3

	TESTQ CX, CX
	JZ    istore

iloop:
	VPMOVSXBD (BX), Y8

	MOVBLSX (AX), R11
	SUBL    R10, R11
	VMOVD   R11, X9
	VPBROADCASTD X9, Y9
	VPMULLD Y8, Y9, Y9
	VPADDD  Y9, Y0, Y0

	MOVBLSX (AX)(DX*1), R11
	SUBL    R10, R11
	VMOVD   R11, X9
	VPBROADCASTD X9, Y9
	VPMULLD Y8, Y9, Y9
	VPADDD  Y9, Y1, Y1

	MOVBLSX (AX)(DX*2), R11
	SUBL    R10, R11
	VMOVD   R11, X9
	VPBROADCASTD X9, Y9
	VPMULLD Y8, Y9, Y9
	VPADDD  Y9, Y2, Y2

	MOVBLSX (AX)(R8*1), R11
	SUBL    R10, R11
	VMOVD   R11, X9
	VPBROADCASTD X9, Y9
	VPMULLD Y8, Y9, Y9
	VPADDD  Y9, Y3, Y3

	ADDQ $8, BX               // next packed panel line (NR bytes)
	INCQ AX                   // next a column
	DECQ CX
	JNZ  iloop

istore:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(SI*1)
	VMOVDQU Y2, (DI)(SI*2)
	VMOVDQU Y3, (DI)(R9*1)
	VZEROUPPER
	RET

// func copyRowsAVX(dst *float32, ldd int, src *float32, lds int, rows, n int)
//
// Copies rows segments of n ≥ 8 floats, the r-th from src+r·lds to
// dst+r·ldd (strides in elements), eight floats per YMM move; the last
// move of a segment ends at its last float and may overlap the one
// before it, so no segment needs a scalar tail.
TEXT ·copyRowsAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), BX
	MOVQ rows+32(FP), CX
	MOVQ n+40(FP), R8
	SHLQ $2, DX               // ldd in bytes
	SHLQ $2, BX               // lds in bytes
	SHLQ $2, R8
	SUBQ $32, R8              // byte offset of the last move: 4n − 32
	TESTQ CX, CX
	JZ    cdone

crow:
	XORQ AX, AX

cchunk:
	CMPQ AX, R8
	JAE  clast
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  cchunk

clast:
	VMOVUPS (SI)(R8*1), Y0
	VMOVUPS Y0, (DI)(R8*1)
	ADDQ BX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  crow

cdone:
	VZEROUPPER
	RET

// func maxPoolRowAVX(dst *float32, src *float32, ow, c, lds int)
//
// One output row of the 2×2, stride-2 max pool over channel-last rows
// lds elements apart, c a multiple of 8: per output pixel and 8 channels,
// bv = x00, then VMAXPS bv, v, bv for v = x01, x10, x11 in that order —
// v > bv ? v : bv per lane, the scalar pool's select, NaN and ±0 alike.
TEXT ·maxPoolRowAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ow+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ lds+32(FP), BX
	SHLQ $2, DX               // c in bytes
	SHLQ $2, BX               // lds in bytes
	TESTQ CX, CX
	JZ    pdone

ppixel:
	LEAQ (SI)(DX*1), R9       // x01
	LEAQ (SI)(BX*1), R10      // x10
	LEAQ (R10)(DX*1), R11     // x11
	XORQ AX, AX

pgroup:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (R9)(AX*1), Y1
	VMAXPS  Y0, Y1, Y0
	VMOVUPS (R10)(AX*1), Y1
	VMAXPS  Y0, Y1, Y0
	VMOVUPS (R11)(AX*1), Y1
	VMAXPS  Y0, Y1, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, DX
	JB   pgroup

	LEAQ (SI)(DX*2), SI       // next input pixel pair
	ADDQ DX, DI
	DECQ CX
	JNZ  ppixel

pdone:
	VZEROUPPER
	RET
