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

// func hasFMA() bool
//
// FMA3 is CPUID.1:ECX bit 12. It is only asked after hasAVX2, which has
// checked that the OS saves the ymm state.
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $12, CX
	JCC  nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
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

// The activation kernels: math.Tanh and the package's sigmoid, four lanes
// at a time, computing the same bits as the scalar code. Go's amd64
// math.Exp is archExp (math/exp_amd64.s), which takes its FMA path on
// every CPU these kernels are dispatched on (AVX2 and FMA), and math.tanh
// is plain IEEE arithmetic around it, so both mirror op for op.

// LANES puts one constant in all four lanes of a 32-byte row of actc.
#define LANES(off, v) DATA actc<>+(off)(SB)/8, v; DATA actc<>+(off+8)(SB)/8, v; DATA actc<>+(off+16)(SB)/8, v; DATA actc<>+(off+24)(SB)/8, v

// archExp's constants, as exp_amd64.s spells them.
LANES(0, $1.4426950408889634073599246810018920)          // LOG2E
LANES(32, $0.69314718055966295651160180568695068359375)  // LN2U
LANES(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(96, $0.0625)
LANES(128, $2.4801587301587301587e-5)
LANES(160, $1.9841269841269841270e-4)
LANES(192, $1.3888888888888888889e-3)
LANES(224, $8.3333333333333333333e-3)
LANES(256, $4.1666666666666666667e-2)
LANES(288, $1.6666666666666666667e-1)
LANES(320, $0.5)
LANES(352, $1.0)
LANES(384, $2.0)
LANES(416, $1023)                    // the exponent bias, an int64
// math.tanh's tanhP and tanhQ.
LANES(448, $-9.64399179425052238628e-1)
LANES(480, $-9.92877231001918586564e1)
LANES(512, $-1.61468768441708447952e3)
LANES(544, $1.12811678491632931402e2)
LANES(576, $2.23548839060100448583e3)
LANES(608, $4.84406305325125486048e3)
LANES(640, $0x7fffffffffffffff)      // |x| mask
LANES(672, $0x8000000000000000)      // sign mask
LANES(704, $-2.0)
LANES(736, $0.625)                   // tanh's exp branch starts here
LANES(768, $44.014845965556527147994) // 0.5·MAXLOG: tanh is ±1 above it
LANES(800, $708.0)                   // the sigmoid kernel's |x| limit
GLOBL actc<>(SB), RODATA|NOPTR, $832

#define LOG2E actc<>+0(SB)
#define LN2U actc<>+32(SB)
#define LN2L actc<>+64(SB)
#define SIXTEENTH actc<>+96(SB)
#define T7 actc<>+128(SB)
#define T6 actc<>+160(SB)
#define T5 actc<>+192(SB)
#define T4 actc<>+224(SB)
#define T3 actc<>+256(SB)
#define T2 actc<>+288(SB)
#define HALF actc<>+320(SB)
#define ONE actc<>+352(SB)
#define TWO actc<>+384(SB)
#define EXPBIAS actc<>+416(SB)
#define P0 actc<>+448(SB)
#define P1 actc<>+480(SB)
#define P2 actc<>+512(SB)
#define Q0 actc<>+544(SB)
#define Q1 actc<>+576(SB)
#define Q2 actc<>+608(SB)
#define ABSMASK actc<>+640(SB)
#define SIGNMASK actc<>+672(SB)
#define NEGTWO actc<>+704(SB)
#define TANHEXP actc<>+736(SB)
#define TANHSAT actc<>+768(SB)
#define SIGMAX actc<>+800(SB)

// EXP replaces t with archExp(t), lane-wise, on its FMA path (the avxfma
// block of exp_amd64.s), clobbering p and k. k = round(t·LOG2E) — VCVTPD2DQ
// rounds to nearest like CVTSD2SL — reduces the argument by two fused
// multiply-subtracts, the Taylor polynomial runs on fused multiply-adds,
// three (r+2)·r squarings follow and the fourth ends in a fused +1, and
// 2^k is built in the exponent field. archExp's overflow, denormal and
// non-finite branches are not mirrored: callers keep their lanes to
// arguments whose k + 1023 lies in (0, 0x7FF).
#define EXP(t, p, kx, ky) \
	VMULPD       LOG2E, t, p;     \
	VCVTPD2DQY   p, kx;           \
	VCVTDQ2PD    kx, p;           \
	VFNMADD231PD LN2U, p, t;      \
	VFNMADD231PD LN2L, p, t;      \
	VMULPD       SIXTEENTH, t, t; \
	VMOVUPD      T7, p;           \
	VFMADD213PD  T6, t, p;        \
	VFMADD213PD  T5, t, p;        \
	VFMADD213PD  T4, t, p;        \
	VFMADD213PD  T3, t, p;        \
	VFMADD213PD  T2, t, p;        \
	VFMADD213PD  HALF, t, p;      \
	VFMADD213PD  ONE, t, p;       \
	VMULPD       p, t, t;         \
	VADDPD       TWO, t, p;       \
	VMULPD       p, t, t;         \
	VADDPD       TWO, t, p;       \
	VMULPD       p, t, t;         \
	VADDPD       TWO, t, p;       \
	VMULPD       p, t, t;         \
	VADDPD       TWO, t, p;       \
	VFMADD213PD  ONE, p, t;       \
	VPMOVSXDQ    kx, ky;          \
	VPADDQ       EXPBIAS, ky, ky; \
	VPSLLQ       $52, ky, ky;     \
	VMULPD       ky, t, t

// func tanhAVX2(x *float64, n int, bias float64)
//
// x[i] = math.Tanh(x[i] + bias) for i in [0, n), n a multiple of 4. Every
// lane computes both of math.tanh's branches and one division serves them:
//
//	exp branch (0.625 ≤ |v| ≤ 0.5·MAXLOG):  ±1 + (∓2)/(exp(2|v|) + 1)
//	rational branch:                        v + (v·s·P(s))/Q(s), s = v·v
//
// which is the scalar 1 − 2/(s+1) (negated for v < 0) exactly, because
// a − b is a + (−b) and (−2)/d is −(2/d) in IEEE arithmetic. Above
// 0.5·MAXLOG the lane is copysign(1, v), and v = ±0 stays v. A NaN lane
// takes the rational branch and stays NaN. On the exp branch 2|v| lies in
// [1.25, 88.03], inside EXP's range.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD bias+16(FP), Y15
	VXORPD       Y14, Y14, Y14
	SHRQ         $2, CX
	JEQ          tanhdone

tanhloop:
	VADDPD (SI), Y15, Y0         // v = x + bias
	VANDPD ABSMASK, Y0, Y1       // z = |v|
	VADDPD Y1, Y1, Y2            // 2z, exact (the compiled tanh adds z to itself too)
	EXP(Y2, Y3, X4, Y4)
	VADDPD ONE, Y2, Y2           // exp(2z) + 1
	VMULPD Y0, Y0, Y3            // s = v·v
	VMULPD P0, Y3, Y4
	VADDPD P1, Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD P2, Y4, Y4            // P = (P0·s + P1)·s + P2
	VMULPD Y3, Y0, Y5
	VMULPD Y4, Y5, Y5            // v·s·P
	VADDPD Q0, Y3, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Q1, Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Q2, Y4, Y4            // Q = ((s + Q0)·s + Q1)·s + Q2
	VANDPD SIGNMASK, Y0, Y6
	VORPD  ONE, Y6, Y7           // copysign(1, v)
	VXORPD NEGTWO, Y6, Y8        // copysign(2, −v)

	VCMPPD    $0x1D, TANHEXP, Y1, Y9 // z ≥ 0.625 (ordered: false for NaN)
	VBLENDVPD Y9, Y7, Y0, Y10        // addend
	VBLENDVPD Y9, Y8, Y5, Y5         // numerator
	VBLENDVPD Y9, Y2, Y4, Y4         // denominator
	VDIVPD    Y4, Y5, Y5
	VADDPD    Y5, Y10, Y10
	VCMPPD    $0x1E, TANHSAT, Y1, Y9 // z > 0.5·MAXLOG
	VBLENDVPD Y9, Y7, Y10, Y10
	VCMPPD    $0x00, Y14, Y0, Y9     // v == 0
	VBLENDVPD Y9, Y0, Y10, Y10
	VMOVUPD   Y10, (SI)
	ADDQ      $32, SI
	DECQ      CX
	JNE       tanhloop

tanhdone:
	VZEROUPPER
	RET

// func sigmoidAVX2(x *float64, n int) int
//
// x[i] = sigmoid(x[i]) for i in [0, n), n a multiple of 4, as one division
// over e = exp(−|x|): (x ≥ 0 ? 1 : e)/(1 + e), which is the scalar
// 1/(1 + exp(−x)) for x ≥ 0 and exp(x)/(1 + exp(x)) below. For x = −0 the
// scalar takes exp(+0) where this takes exp(−0); both are 1. A group of
// four holding a NaN or an |x| above 708 — where archExp would leave EXP's
// range — is left as it is, and the kernel returns the index of that
// group (n when every group was done), for the caller to finish in Go.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	XORQ   DX, DX
	VXORPD Y14, Y14, Y14

sigloop:
	CMPQ      DX, CX
	JGE       sigdone
	VMOVUPD   (SI)(DX*8), Y0
	VANDPD    ABSMASK, Y0, Y1
	VCMPPD    $0x12, SIGMAX, Y1, Y2 // |x| ≤ 708 (ordered: false for NaN)
	VMOVMSKPD Y2, AX
	CMPQ      AX, $15
	JNE       sigdone
	VORPD     SIGNMASK, Y0, Y2      // −|x|
	EXP(Y2, Y3, X4, Y4)
	VADDPD    ONE, Y2, Y3           // 1 + e
	VCMPPD    $0x1D, Y14, Y0, Y5    // x ≥ 0
	VBLENDVPD Y5, ONE, Y2, Y5       // x ≥ 0 ? 1 : e
	VDIVPD    Y3, Y5, Y5
	VMOVUPD   Y5, (SI)(DX*8)
	ADDQ      $4, DX
	JMP       sigloop

sigdone:
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET
