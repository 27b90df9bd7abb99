//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when the CPU reports it (leaf 7 EBX bit 5) and the OS
// saves the ymm state: CPUID.1:ECX has OSXSAVE (27) and AVX (28), and XCR0
// enables the SSE and AVX state components (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// ROW multiplies the broadcast weight at off(ptr) into both halves of the
// x panel (Y8, Y9) and adds the products to the row's accumulator pair.
// The product is rounded by VMULPD before VADDPD rounds the sum: MulVec's
// two roundings per term, never a fused one. Operand order matches the
// scalar code too (weight first in the product, accumulator first in the
// sum), which is what x86 uses to pick a payload when both are NaN.
#define ROW(ptr, lo, hi) \
	VBROADCASTSD (ptr)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11;     \
	VMULPD       Y9, Y10, Y12;     \
	VADDPD       Y11, lo, lo;      \
	VADDPD       Y12, hi, hi

// func mulPanelAVX2(w *float64, r, c int, xT *float64, ld int, outT *float64)
//
// One 8-lane panel of Out = X·Wᵀ in feature-major layout:
//
//	outT[i*ld+l] = Σ_j w[i*c+j] · xT[j*ld+l]    l = 0..7, i = 0..r-1
//
// with j ascending and every accumulator starting at +0, so each lane is
// MulVec's sum term for term. Four weight rows ride one pass over the
// panel (eight accumulators, Y0-Y7); the r%4 rows left over take one pass
// each. c must be at least 1.
TEXT ·mulPanelAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ r+8(FP), R8
	MOVQ c+16(FP), R9
	MOVQ xT+24(FP), DX
	MOVQ ld+32(FP), R10
	MOVQ outT+40(FP), DI
	SHLQ $3, R10             // ld in bytes
	MOVQ R9, R11
	SHLQ $3, R11             // weight row stride in bytes

rows4:
	CMPQ R8, $4
	JLT  rows1
	LEAQ (SI)(R11*1), R12    // rows i+1, i+2, i+3
	LEAQ (SI)(R11*2), R13
	LEAQ (R12)(R11*2), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, BX              // x panel cursor
	XORQ AX, AX              // byte offset of column j in a weight row

cols4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW(SI, Y0, Y1)
	ROW(R12, Y2, Y3)
	ROW(R13, Y4, Y5)
	ROW(CX, Y6, Y7)
	ADDQ R10, BX
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  cols4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    R10, DI
	LEAQ    (R13)(R11*2), SI
	SUBQ    $4, R8
	JMP     rows4

rows1:
	TESTQ R8, R8
	JEQ   done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ DX, BX
	XORQ AX, AX

cols1:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW(SI, Y0, Y1)
	ADDQ R10, BX
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  cols1

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R10, DI
	ADDQ    R11, SI
	DECQ    R8
	JMP     rows1

done:
	VZEROUPPER
	RET
