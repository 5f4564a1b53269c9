#include "textflag.h"

// The element-wise passes of a training step: bias + activation, dz = up ⊙
// act'(z), the Adam step and the soft target update.
//
// Bit-identity contract, the same for all four: a lane is one element and
// sees the scalar loop's IEEE operations in the scalar loop's order — one
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD (all correctly rounded) per scalar
// * + - / math.Sqrt, never an FMA. A branch on a value becomes a select
// (VMAXPD, or VCMPPD + VBLENDVPD): both sides are computed, one is kept.
//
// The flat kernels run whole vectors with VMOVUPD and the last n mod 4
// elements under a VMASKMOVPD lane mask taken from rowAccMask; dead lanes
// load as zero, fault on nothing and are never stored.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA, $8

// Y12 = the lane mask of a tail n wide (0 ≤ n ≤ 3): rowAccMask[16-n:][:4].
#define TAIL_MASK(n, tmp) \
	LEAQ ·rowAccMask+128(SB), tmp; \
	SHLQ $3, n; \
	SUBQ n, tmp; \
	VMOVUPD (tmp), Y12

// A flat kernel over n = CX elements: CX becomes the whole-vector count,
// BX is non-zero when there is a tail, AX the running byte offset.
#define FLAT_SETUP \
	MOVQ CX, BX; \
	ANDQ $3, BX; \
	SHRQ $2, CX; \
	TAIL_MASK(BX, R11); \
	XORQ AX, AX

// act(v) = max(v, v·slope AND keep), with Y14 = slope and Y15 = keep:
// Leaky ReLU is max(v, 0.2·v), ReLU max(v, +0) — its product is masked to
// +0 whatever v·0 is — and identity max(v, v·1). VMAXPD keeps its first
// source only where first > second is true, so −0, NaN and a tie take the
// product side, the side `!(v >= 0)` and `!(v > 0)` take in Go.
// In: Y0 = z, Y1 = bias. Out: Y0 = v = z + bias, Y2 = act(v). The X forms
// are the same instructions on lane 0.
#define BIAS_ACT(ADD, MUL, MAX, v, bias, slope, keep, out) \
	ADD bias, v, v; \
	MUL slope, v, out; \
	VANDPD keep, out, out; \
	MAX out, v, out

// func biasActAVX(z, y, b *float64, rows, cols int, slope float64, keep uint64)
//
// For every row of the rows×cols matrices z and y (rows, cols > 0):
// z[j] += b[j]; y[j] = act(z[j]). y may be z: each element is read before
// either store and y's store is the later one. The last cols mod 4 elements
// of a row go one at a time, not under a lane mask: the next row's first
// load would overlap a masked store and wait for it to retire.
TEXT ·biasActAVX(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ cols+32(FP), R10
	VBROADCASTSD slope+40(FP), Y14
	VBROADCASTSD keep+48(FP), Y15
	MOVQ R10, DX
	ANDQ $-4, DX           // DX = cols rounded down to whole vectors
	MOVQ R10, R11
	SHLQ $3, R11           // row pitch in bytes

baRow:
	XORQ CX, CX
	CMPQ CX, DX
	JGE  baTail

baBody:
	VMOVUPD (DI)(CX*8), Y0
	VMOVUPD (R8)(CX*8), Y1
	BIAS_ACT(VADDPD, VMULPD, VMAXPD, Y0, Y1, Y14, Y15, Y2)
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y2, (SI)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT  baBody

baTail:
	CMPQ CX, R10
	JGE  baNext
	VMOVSD (DI)(CX*8), X0
	VMOVSD (R8)(CX*8), X1
	BIAS_ACT(VADDSD, VMULSD, VMAXSD, X0, X1, X14, X15, X2)
	VMOVSD X0, (DI)(CX*8)
	VMOVSD X2, (SI)(CX*8)
	INCQ CX
	JMP  baTail

baNext:
	ADDQ R11, DI
	ADDQ R11, SI
	DECQ R9
	JNZ  baRow
	VZEROUPPER
	RET

// In: Y0 = up, Y1 = z (or y). Out: Y0 = dz.
//
// Piecewise-linear: up where z >= thresh (Y13), else up·slope (Y14).
#define DERIV_PWL \
	VCMPPD $0x1D, Y13, Y1, Y1; \
	VMULPD Y14, Y0, Y2; \
	VBLENDVPD Y1, Y0, Y2, Y0

// Sigmoid: up·(y·(1−y)), Y15 = 1.
#define DERIV_SIGMOID \
	VSUBPD Y1, Y15, Y2; \
	VMULPD Y2, Y1, Y2; \
	VMULPD Y2, Y0, Y0

// Tanh: up·(1−y·y).
#define DERIV_TANH \
	VMULPD Y1, Y1, Y2; \
	VSUBPD Y2, Y15, Y2; \
	VMULPD Y2, Y0, Y0

#define DERIV_LOOP(src, DERIV, body, tail) \
	TESTQ CX, CX; \
	JZ    tail; \
body: \
	VMOVUPD (SI)(AX*1), Y0; \
	VMOVUPD (src)(AX*1), Y1; \
	DERIV; \
	VMOVUPD Y0, (DI)(AX*1); \
	ADDQ $32, AX; \
	DECQ CX; \
	JNZ  body; \
tail: \
	TESTQ BX, BX; \
	JZ    mdDone; \
	VMASKMOVPD (SI)(AX*1), Y12, Y0; \
	VMASKMOVPD (src)(AX*1), Y12, Y1; \
	DERIV; \
	VMASKMOVPD Y0, Y12, (DI)(AX*1); \
	JMP   mdDone

// func mulDerivAVX(dz, up, z, y *float64, n int, form int, thresh, slope float64)
//
// dz[i] = up[i] · act'(z[i], y[i]) for i in [0,n), n > 0; form picks the
// derivative: 0 piecewise-linear on z, 1 sigmoid on y, 2 tanh on y.
TEXT ·mulDerivAVX(SB), NOSPLIT, $0-64
	MOVQ dz+0(FP), DI
	MOVQ up+8(FP), SI
	MOVQ z+16(FP), R8
	MOVQ y+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ form+40(FP), DX
	VBROADCASTSD thresh+48(FP), Y13
	VBROADCASTSD slope+56(FP), Y14
	VBROADCASTSD one<>(SB), Y15
	FLAT_SETUP
	CMPQ DX, $1
	JEQ  mdSigmoid
	JGT  mdTanh
	DERIV_LOOP(R8, DERIV_PWL, mdPwlBody, mdPwlTail)

mdSigmoid:
	DERIV_LOOP(R9, DERIV_SIGMOID, mdSigBody, mdSigTail)

mdTanh:
	DERIV_LOOP(R9, DERIV_TANH, mdTanhBody, mdTanhTail)

mdDone:
	VZEROUPPER
	RET

// One Adam step on four parameters. Constants: Y8 = β1, Y9 = 1−β1, Y10 = β2,
// Y11 = 1−β2, Y13 = 1−β1ᵗ, Y14 = 1−β2ᵗ, Y15 = lr, Y7 = ε. In and out:
// Y0 = p, Y2 = m, Y3 = v; in: Y1 = gradient.
#define ADAM_STEP \
	VMULPD Y8, Y2, Y2; \
	VMULPD Y9, Y1, Y4; \
	VADDPD Y4, Y2, Y2; \
	VMULPD Y10, Y3, Y3; \
	VMULPD Y11, Y1, Y4; \
	VMULPD Y1, Y4, Y4; \
	VADDPD Y4, Y3, Y3; \
	VDIVPD Y13, Y2, Y4; \
	VDIVPD Y14, Y3, Y5; \
	VMULPD Y15, Y4, Y4; \
	VSQRTPD Y5, Y5; \
	VADDPD Y7, Y5, Y5; \
	VDIVPD Y5, Y4, Y4; \
	VSUBPD Y4, Y0, Y0

// func adamStepAVX(p, grad, m, v *float64, n int, c *[8]float64)
//
// For i in [0,n), n > 0, with c = {β1, 1−β1, β2, 1−β2, 1−β1ᵗ, 1−β2ᵗ, lr, ε}:
//
//	m[i] = β1·m[i] + (1−β1)·grad[i]
//	v[i] = β2·v[i] + ((1−β2)·grad[i])·grad[i]
//	p[i] = p[i] − (lr·(m[i]/(1−β1ᵗ))) / (sqrt(v[i]/(1−β2ᵗ)) + ε)
TEXT ·adamStepAVX(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), DX
	VBROADCASTSD 0(DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VBROADCASTSD 32(DX), Y13
	VBROADCASTSD 40(DX), Y14
	VBROADCASTSD 48(DX), Y15
	VBROADCASTSD 56(DX), Y7
	FLAT_SETUP
	TESTQ CX, CX
	JZ    adamTail

adamBody:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (SI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	ADAM_STEP
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, (R9)(AX*1)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	DECQ CX
	JNZ  adamBody

adamTail:
	TESTQ BX, BX
	JZ    adamDone
	VMASKMOVPD (DI)(AX*1), Y12, Y0
	VMASKMOVPD (SI)(AX*1), Y12, Y1
	VMASKMOVPD (R8)(AX*1), Y12, Y2
	VMASKMOVPD (R9)(AX*1), Y12, Y3
	ADAM_STEP
	VMASKMOVPD Y2, Y12, (R8)(AX*1)
	VMASKMOVPD Y3, Y12, (R9)(AX*1)
	VMASKMOVPD Y0, Y12, (DI)(AX*1)

adamDone:
	VZEROUPPER
	RET

// In: Y0 = dst, Y1 = src. Out: Y0 = τ·src + (1−τ)·dst (Y14 = τ, Y15 = 1−τ).
#define SOFT_UPDATE \
	VMULPD Y14, Y1, Y1; \
	VMULPD Y15, Y0, Y0; \
	VADDPD Y0, Y1, Y0

// func softUpdateAVX(dst, src *float64, n int, tau, rest float64)
//
// dst[i] = tau·src[i] + rest·dst[i] for i in [0,n), n > 0.
TEXT ·softUpdateAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD tau+24(FP), Y14
	VBROADCASTSD rest+32(FP), Y15
	FLAT_SETUP
	TESTQ CX, CX
	JZ    suTail

suBody:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (SI)(AX*1), Y1
	SOFT_UPDATE
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	DECQ CX
	JNZ  suBody

suTail:
	TESTQ BX, BX
	JZ    suDone
	VMASKMOVPD (DI)(AX*1), Y12, Y0
	VMASKMOVPD (SI)(AX*1), Y12, Y1
	SOFT_UPDATE
	VMASKMOVPD Y0, Y12, (DI)(AX*1)

suDone:
	VZEROUPPER
	RET
