#include "textflag.h"

// func matmulTile48AVX(c *float64, cStride int, aPack *float64, b *float64, k int)
//
// Computes the 4×8 output tile c[0:4][0:8] = Apanel · B[0:8]ᵀ. aPack holds
// the four A rows column-interleaved (k quads of {a0[kk],a1[kk],a2[kk],
// a3[kk]}); b points at eight consecutive length-k rows of B; c points at
// the tile's top-left element inside a row-major matrix with cStride
// elements per row.
//
// Bit-identity contract: each output element accumulates its dot product
// sequentially in increasing k with exactly one IEEE double mul and one add
// per step — the same operation sequence as the scalar kernel. The
// vectorization is across independent elements only: the four A rows ride
// in the four ymm lanes and the eight B rows each own an accumulator
// register (Y0–Y7), so no element's sum is ever reordered or split.
TEXT ·matmulTile48AVX(SB), NOSPLIT, $32-40
	MOVQ c+0(FP), DI
	MOVQ aPack+16(FP), SI
	MOVQ b+24(FP), R8
	MOVQ k+32(FP), AX

	// B row pointers: eight rows spaced k*8 bytes apart.
	MOVQ AX, DX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), R14
	LEAQ (R14)(DX*1), BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ CX, CX

loop:
	VMOVUPD (SI), Y8
	ADDQ $32, SI
	VBROADCASTSD (R8)(CX*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0
	VBROADCASTSD (R9)(CX*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y1, Y1
	VBROADCASTSD (R10)(CX*8), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y2, Y2
	VBROADCASTSD (R11)(CX*8), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R12)(CX*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y4, Y4
	VBROADCASTSD (R13)(CX*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y5, Y5
	VBROADCASTSD (R14)(CX*8), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y6, Y6
	VBROADCASTSD (BX)(CX*8), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y7, Y7
	INCQ CX
	CMPQ CX, AX
	JLT  loop

	// Scatter: lane l of accumulator Yt is c[l][t]. Spill each ymm to the
	// frame and store the four lanes to their strided rows.
	MOVQ cStride+8(FP), DX
	SHLQ $3, DX
	MOVQ DI, R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	VMOVUPD Y0, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, (R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, (R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, (R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, (R11)

	VMOVUPD Y1, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 8(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 8(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 8(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 8(R11)

	VMOVUPD Y2, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 16(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 16(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 16(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 16(R11)

	VMOVUPD Y3, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 24(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 24(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 24(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 24(R11)

	VMOVUPD Y4, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 32(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 32(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 32(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 32(R11)

	VMOVUPD Y5, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 40(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 40(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 40(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 40(R11)

	VMOVUPD Y6, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 48(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 48(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 48(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 48(R11)

	VMOVUPD Y7, tmp-32(SP)
	MOVQ    tmp-32(SP), AX
	MOVQ    AX, 56(R8)
	MOVQ    tmp-24(SP), AX
	MOVQ    AX, 56(R9)
	MOVQ    tmp-16(SP), AX
	MOVQ    AX, 56(R10)
	MOVQ    tmp-8(SP), AX
	MOVQ    AX, 56(R11)

	VZEROUPPER
	RET

// func packPanel4AVX(pack *float64, a *float64, k int, stride int)
//
// Packs four consecutive length-k rows at a into a column-interleaved
// panel with stride elements per column: pack[kk*stride+l] = a[l*k+kk].
// Stride 4 is the A panel the 4-row tiles read; four calls at stride 16
// build the zmm tile's B panel. Whole 4×4 blocks are transposed in
// registers, the last k mod 4 columns are moved one element at a time.
// Data movement only.
TEXT ·packPanel4AVX(SB), NOSPLIT, $0-32
	MOVQ pack+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R11
	SHLQ $3, R11                  // column stride in bytes
	LEAQ (R11)(R11*2), R12        // three columns
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	MOVQ CX, BX
	ANDQ $3, BX
	SHRQ $2, CX
	JZ   packTail

packBlock:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R10), Y3
	VUNPCKLPD Y1, Y0, Y4          // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD Y1, Y0, Y5          // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD Y3, Y2, Y6          // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD Y3, Y2, Y7          // r2[1] r3[1] r2[3] r3[3]
	VPERM2F128 $0x20, Y6, Y4, Y0  // column 0 of the block
	VPERM2F128 $0x20, Y7, Y5, Y1  // column 1
	VPERM2F128 $0x31, Y6, Y4, Y2  // column 2
	VPERM2F128 $0x31, Y7, Y5, Y3  // column 3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R11*1)
	VMOVUPD Y2, (DI)(R11*2)
	VMOVUPD Y3, (DI)(R12*1)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	LEAQ (DI)(R11*4), DI
	DECQ CX
	JNZ  packBlock

packTail:
	TESTQ BX, BX
	JZ    packDone

packColumn:
	MOVQ (SI), AX
	MOVQ AX, 0(DI)
	MOVQ (R8), AX
	MOVQ AX, 8(DI)
	MOVQ (R9), AX
	MOVQ AX, 16(DI)
	MOVQ (R10), AX
	MOVQ AX, 24(DI)
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ R11, DI
	DECQ BX
	JNZ  packColumn

packDone:
	VZEROUPPER
	RET

// func matmulTile4NAVX(c *float64, cStride int, aPack *float64, b *float64, k int, nc int)
//
// The narrow form of the tile above, for heads and column tails: the 4×nc
// tile c[0:4][0:nc] = Apanel · B[0:nc]ᵀ, 1 ≤ nc ≤ 7. Same panel, same
// contract — lane l of accumulator Yt is c[l][t]'s one sequential mul+add
// chain over k. Columns nc and up are neither read nor written: every k
// step and the scatter leave at the first column that is not live (the
// branches go the same way all call, so they predict).
#define TILE_MAC(brow, acc) \
	VBROADCASTSD (brow)(CX*8), Y9; \
	VMULPD Y8, Y9, Y9; \
	VADDPD Y9, acc, acc

#define TILE_LIVE(col, out) \
	CMPQ DX, $col; \
	JLE out

// Lane l of acc goes to column off/8 of row l; acc's upper half is moved down.
#define TILE_SCATTER(acc, accx, off) \
	VMOVLPD accx, off(R8); \
	VMOVHPD accx, off(R9); \
	VEXTRACTF128 $1, acc, accx; \
	VMOVLPD accx, off(R10); \
	VMOVHPD accx, off(R11)

TEXT ·matmulTile4NAVX(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ aPack+16(FP), SI
	MOVQ b+24(FP), R8
	MOVQ k+32(FP), AX
	MOVQ nc+40(FP), DX

	// B row pointers, k*8 bytes apart; those past nc are never dereferenced.
	MOVQ AX, BX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R14

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	XORQ CX, CX

loopN:
	VMOVUPD (SI), Y8
	ADDQ $32, SI
	TILE_MAC(R8, Y0)
	TILE_LIVE(1, nextN)
	TILE_MAC(R9, Y1)
	TILE_LIVE(2, nextN)
	TILE_MAC(R10, Y2)
	TILE_LIVE(3, nextN)
	TILE_MAC(R11, Y3)
	TILE_LIVE(4, nextN)
	TILE_MAC(R12, Y4)
	TILE_LIVE(5, nextN)
	TILE_MAC(R13, Y5)
	TILE_LIVE(6, nextN)
	TILE_MAC(R14, Y6)

nextN:
	INCQ CX
	CMPQ CX, AX
	JLT  loopN

	MOVQ cStride+8(FP), BX
	SHLQ $3, BX
	MOVQ DI, R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

	TILE_SCATTER(Y0, X0, 0)
	TILE_LIVE(1, doneN)
	TILE_SCATTER(Y1, X1, 8)
	TILE_LIVE(2, doneN)
	TILE_SCATTER(Y2, X2, 16)
	TILE_LIVE(3, doneN)
	TILE_SCATTER(Y3, X3, 24)
	TILE_LIVE(4, doneN)
	TILE_SCATTER(Y4, X4, 32)
	TILE_LIVE(5, doneN)
	TILE_SCATTER(Y5, X5, 40)
	TILE_LIVE(6, doneN)
	TILE_SCATTER(Y6, X6, 48)

doneN:
	VZEROUPPER
	RET

// rowAcc32AVX and rowAccTailAVX are the row-accumulate kernel of the bias
// gradient and of both backward products (on AVX-512 hosts, of their rows
// past the last block of four; the four-row tiles below take the rest):
//
//	c[j] += Σ_kk a[kk·aStride] · b[kk·bStride + j]
//
// for one block of columns j of one output row. The block lives in ymm
// accumulators for the whole k loop; each step broadcasts one a scalar and
// does one VMULPD and one VADDPD per accumulator.
//
// Bit-identity contract: lanes span independent output elements only; every
// element adds its products in increasing kk, each product rounded by its
// own multiply before the add (never FMA), and a step whose a scalar
// compares equal to zero is skipped outright — exactly the scalar loops'
// `if av == 0 { continue }`, so 0·Inf never reaches the sum.
//
// SI walks a, R8 walks b, CX counts k down (k > 0), X15 is zero, Y8 the
// broadcast scalar, Y9 the product.
#define ROWACC_ARGS(a, aStride, b, bStride, k) \
	MOVQ a, SI; \
	MOVQ aStride, R9; \
	MOVQ b, R8; \
	MOVQ bStride, R10; \
	MOVQ k, CX; \
	SHLQ $3, R9; \
	SHLQ $3, R10; \
	VXORPD X15, X15, X15

// Falls through to the MACs unless a[kk] == 0 (ZF set, PF clear: NaN
// compares unordered and must not skip).
#define ROWACC_SKIPZERO(next, mac) \
	VMOVSD (SI), X8; \
	VUCOMISD X15, X8; \
	JNE mac; \
	JPC next

#define ROWACC_NEXT(loop) \
	ADDQ R9, SI; \
	ADDQ R10, R8; \
	DECQ CX; \
	JNZ loop

#define MAC(off, acc) \
	VMULPD off(R8), Y8, Y9; \
	VADDPD Y9, acc, acc

#define MACM(off, mask, acc) \
	VMASKMOVPD off(R8), mask, Y9; \
	VMULPD Y9, Y8, Y9; \
	VADDPD Y9, acc, acc

// func rowAcc32AVX(c *float64, a *float64, aStride int, b *float64, bStride int, k int)
//
// The full-width block: 32 columns in Y0–Y7.
TEXT ·rowAcc32AVX(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	ROWACC_ARGS(a+8(FP), aStride+16(FP), b+24(FP), bStride+32(FP), k+40(FP))
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

loop32:
	ROWACC_SKIPZERO(next32, mac32)

mac32:
	VBROADCASTSD (SI), Y8
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)

next32:
	ROWACC_NEXT(loop32)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func rowAccTailAVX(c *float64, mask *uint64, a *float64, aStride int, b *float64, bStride int, k int)
//
// The column tail: 1 to 16 columns in Y0–Y3 under the sixteen lane masks at
// mask (all-ones for a live column, zero past the end of the row). Masked
// loads read dead lanes as 0 and never touch their memory; whatever a dead
// lane accumulates is dropped by the masked store.
TEXT ·rowAccTailAVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ mask+8(FP), DX
	ROWACC_ARGS(a+16(FP), aStride+24(FP), b+32(FP), bStride+40(FP), k+48(FP))
	VMOVUPD 0(DX), Y11
	VMOVUPD 32(DX), Y12
	VMOVUPD 64(DX), Y13
	VMOVUPD 96(DX), Y14
	VMASKMOVPD 0(DI), Y11, Y0
	VMASKMOVPD 32(DI), Y12, Y1
	VMASKMOVPD 64(DI), Y13, Y2
	VMASKMOVPD 96(DI), Y14, Y3

loopT:
	ROWACC_SKIPZERO(nextT, macT)

macT:
	VBROADCASTSD (SI), Y8
	MACM(0, Y11, Y0)
	MACM(32, Y12, Y1)
	MACM(64, Y13, Y2)
	MACM(96, Y14, Y3)

nextT:
	ROWACC_NEXT(loopT)
	VMASKMOVPD Y0, Y11, 0(DI)
	VMASKMOVPD Y1, Y12, 32(DI)
	VMASKMOVPD Y2, Y13, 64(DI)
	VMASKMOVPD Y3, Y14, 96(DI)
	VZEROUPPER
	RET

// func matmulTile816AVX512(c *float64, cStride int, a *float64, aStride int, bPack *float64, k int)
//
// Computes the 8×16 output tile c[0:8][0:16] = A[0:8] · Bpanelᵀ. a points
// at eight length-k rows of A spaced aStride elements apart, read in place;
// bPack holds sixteen B rows column-interleaved (k groups of sixteen,
// bPack[kk*16+jj] = b[jj][kk]); c points at the tile's top-left element
// inside a row-major matrix with cStride elements per row. k > 0.
//
// Bit-identity contract: as for the AVX tiles above, each output element
// accumulates its dot product sequentially in increasing k with exactly one
// IEEE double VMULPD and one VADDPD per step — never FMA, never an embedded
// rounding or suppress-all-exceptions override, so MXCSR rounds as it does
// the scalar loop. Lanes span independent output elements only: row r's
// sixteen columns live in its two accumulators, Z(2r) and Z(2r+1), which
// are stored straight to c's row r.
//
// R8–R14 and BX walk the eight A rows, CX counts kk, SI walks the panel;
// Z16/Z17 are the panel's sixteen values at kk, Z18 the broadcast a
// scalar, Z19/Z20 the products.
#define ZROW_MAC(arow, acc0, acc1) \
	VBROADCASTSD (arow)(CX*8), Z18; \
	VMULPD Z16, Z18, Z19; \
	VADDPD Z19, acc0, acc0; \
	VMULPD Z17, Z18, Z20; \
	VADDPD Z20, acc1, acc1

#define ZROW_STORE(acc0, acc1) \
	VMOVUPD acc0, (DI); \
	VMOVUPD acc1, 64(DI); \
	ADDQ DX, DI

TEXT ·matmulTile816AVX512(SB), NOSPLIT, $0-48
	MOVQ a+16(FP), R8
	MOVQ aStride+24(FP), DX
	MOVQ bPack+32(FP), SI
	MOVQ k+40(FP), AX

	// A row pointers: eight rows spaced aStride*8 bytes apart.
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), R14
	LEAQ (R14)(DX*1), BX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	XORQ   CX, CX

loop816:
	VMOVUPD (SI), Z16
	VMOVUPD 64(SI), Z17
	ADDQ    $128, SI
	ZROW_MAC(R8, Z0, Z1)
	ZROW_MAC(R9, Z2, Z3)
	ZROW_MAC(R10, Z4, Z5)
	ZROW_MAC(R11, Z6, Z7)
	ZROW_MAC(R12, Z8, Z9)
	ZROW_MAC(R13, Z10, Z11)
	ZROW_MAC(R14, Z12, Z13)
	ZROW_MAC(BX, Z14, Z15)
	INCQ CX
	CMPQ CX, AX
	JLT  loop816

	MOVQ c+0(FP), DI
	MOVQ cStride+8(FP), DX
	SHLQ $3, DX
	ZROW_STORE(Z0, Z1)
	ZROW_STORE(Z2, Z3)
	ZROW_STORE(Z4, Z5)
	ZROW_STORE(Z6, Z7)
	ZROW_STORE(Z8, Z9)
	ZROW_STORE(Z10, Z11)
	ZROW_STORE(Z12, Z13)
	ZROW_STORE(Z14, Z15)
	VZEROUPPER
	RET

// rowAcc4x8AVX512, rowAcc4x16AVX512 and rowAcc4x32AVX512 are the AVX-512
// four-row tiles of the row-accumulate kernel above:
//
//	c[r][j] += Σ_kk a[r·aRow + kk·aK] · b[kk·bStride + j]
//
// for rows r in [0,4) and one block of 8, 16 or 32 columns j. The block
// lives in zmm accumulators for the whole k loop, row r's in its own
// registers; each k step loads the B row once for all four rows. The last
// zmm of the block is opmask-masked: mask holds its live lanes (bit l set
// for column 8·(width-1)+l), so masked loads read dead columns as 0 and
// never touch their memory, and the masked stores leave them untouched.
// With aRow = dz.Cols, aK = 1 the rows are rows of dz·W (matMulNNAcc); with
// aRow = 1, aK = dz.Cols they are rows of dzᵀ·x (matMulTNAcc). k > 0.
//
// Bit-identity contract: as for rowAcc32AVX. Lanes span independent output
// elements only; every element adds its products in increasing kk, each a
// VMULPD then a VADDPD, never FMA, with no embedded rounding or
// suppress-all-exceptions override. A row's step is skipped when its a
// scalar is ±0 — the integer test `a<<1 == 0`, true for exactly the two
// zeros and never for a NaN — per row, so a zero in one row never skips its
// neighbours.
//
// SI walks row 0 of a (rows 1–3 at R9, 2·R9 and R11 bytes past it), R8
// walks b, CX counts k down; DI, R13, R14 and BX are the four rows of c.
// Z16–Z19 hold the B row at kk, Z20 the broadcast a scalar, Z21–Z24 the
// products; row r's accumulators are Z(w·r) to Z(w·r+w-1) at width w zmm.
#define RA4_ARGS(c, cStride, a, aRow, aK, b, bStride, k, mask) \
	MOVQ c, DI; \
	MOVQ cStride, DX; \
	MOVQ a, SI; \
	MOVQ aRow, R9; \
	MOVQ aK, R10; \
	MOVQ b, R8; \
	MOVQ bStride, R12; \
	MOVQ k, CX; \
	MOVQ mask, AX; \
	KMOVW AX, K1; \
	SHLQ $3, DX; \
	SHLQ $3, R9; \
	SHLQ $3, R10; \
	SHLQ $3, R12; \
	LEAQ (R9)(R9*2), R11; \
	LEAQ (DI)(DX*1), R13; \
	LEAQ (R13)(DX*1), R14; \
	LEAQ (R14)(DX*1), BX

// Jumps to skip when the a scalar at arow is +0 or -0.
#define RA4_SKIPZERO(arow, skip) \
	MOVQ arow, AX; \
	SHLQ $1, AX; \
	JZ skip

#define RA4_NEXT(loop) \
	ADDQ R10, SI; \
	ADDQ R12, R8; \
	DECQ CX; \
	JNZ loop

#define RA4_MAC1(arow, acc0) \
	VBROADCASTSD arow, Z20; \
	VMULPD Z16, Z20, Z21; \
	VADDPD Z21, acc0, acc0

#define RA4_MAC2(arow, acc0, acc1) \
	RA4_MAC1(arow, acc0); \
	VMULPD Z17, Z20, Z22; \
	VADDPD Z22, acc1, acc1

#define RA4_MAC4(arow, acc0, acc1, acc2, acc3) \
	RA4_MAC2(arow, acc0, acc1); \
	VMULPD Z18, Z20, Z23; \
	VADDPD Z23, acc2, acc2; \
	VMULPD Z19, Z20, Z24; \
	VADDPD Z24, acc3, acc3

// func rowAcc4x8AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)
//
// One zmm per row: 1 to 8 columns, all under the mask.
TEXT ·rowAcc4x8AVX512(SB), NOSPLIT, $0-72
	RA4_ARGS(c+0(FP), cStride+8(FP), a+16(FP), aRow+24(FP), aK+32(FP), b+40(FP), bStride+48(FP), k+56(FP), mask+64(FP))
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (R13), K1, Z1
	VMOVUPD.Z (R14), K1, Z2
	VMOVUPD.Z (BX), K1, Z3

loop4x8:
	VMOVUPD.Z (R8), K1, Z16
	RA4_SKIPZERO((SI), row1x8)
	RA4_MAC1((SI), Z0)

row1x8:
	RA4_SKIPZERO((SI)(R9*1), row2x8)
	RA4_MAC1((SI)(R9*1), Z1)

row2x8:
	RA4_SKIPZERO((SI)(R9*2), row3x8)
	RA4_MAC1((SI)(R9*2), Z2)

row3x8:
	RA4_SKIPZERO((SI)(R11*1), next4x8)
	RA4_MAC1((SI)(R11*1), Z3)

next4x8:
	RA4_NEXT(loop4x8)
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K1, (R13)
	VMOVUPD Z2, K1, (R14)
	VMOVUPD Z3, K1, (BX)
	VZEROUPPER
	RET

// func rowAcc4x16AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)
//
// Two zmm per row: 9 to 16 columns, the second eight under the mask.
TEXT ·rowAcc4x16AVX512(SB), NOSPLIT, $0-72
	RA4_ARGS(c+0(FP), cStride+8(FP), a+16(FP), aRow+24(FP), aK+32(FP), b+40(FP), bStride+48(FP), k+56(FP), mask+64(FP))
	VMOVUPD   (DI), Z0
	VMOVUPD.Z 64(DI), K1, Z1
	VMOVUPD   (R13), Z2
	VMOVUPD.Z 64(R13), K1, Z3
	VMOVUPD   (R14), Z4
	VMOVUPD.Z 64(R14), K1, Z5
	VMOVUPD   (BX), Z6
	VMOVUPD.Z 64(BX), K1, Z7

loop4x16:
	VMOVUPD   (R8), Z16
	VMOVUPD.Z 64(R8), K1, Z17
	RA4_SKIPZERO((SI), row1x16)
	RA4_MAC2((SI), Z0, Z1)

row1x16:
	RA4_SKIPZERO((SI)(R9*1), row2x16)
	RA4_MAC2((SI)(R9*1), Z2, Z3)

row2x16:
	RA4_SKIPZERO((SI)(R9*2), row3x16)
	RA4_MAC2((SI)(R9*2), Z4, Z5)

row3x16:
	RA4_SKIPZERO((SI)(R11*1), next4x16)
	RA4_MAC2((SI)(R11*1), Z6, Z7)

next4x16:
	RA4_NEXT(loop4x16)
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, K1, 64(DI)
	VMOVUPD Z2, (R13)
	VMOVUPD Z3, K1, 64(R13)
	VMOVUPD Z4, (R14)
	VMOVUPD Z5, K1, 64(R14)
	VMOVUPD Z6, (BX)
	VMOVUPD Z7, K1, 64(BX)
	VZEROUPPER
	RET

// Loads (or stores) one row of the 32-column block: three whole zmm, then
// the fourth under the mask.
#define RA4_LOAD32(row, acc0, acc1, acc2, acc3) \
	VMOVUPD (row), acc0; \
	VMOVUPD 64(row), acc1; \
	VMOVUPD 128(row), acc2; \
	VMOVUPD.Z 192(row), K1, acc3

#define RA4_STORE32(row, acc0, acc1, acc2, acc3) \
	VMOVUPD acc0, (row); \
	VMOVUPD acc1, 64(row); \
	VMOVUPD acc2, 128(row); \
	VMOVUPD acc3, K1, 192(row)

// func rowAcc4x32AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)
//
// Four zmm per row: 25 to 32 columns, the last eight under the mask.
TEXT ·rowAcc4x32AVX512(SB), NOSPLIT, $0-72
	RA4_ARGS(c+0(FP), cStride+8(FP), a+16(FP), aRow+24(FP), aK+32(FP), b+40(FP), bStride+48(FP), k+56(FP), mask+64(FP))
	RA4_LOAD32(DI, Z0, Z1, Z2, Z3)
	RA4_LOAD32(R13, Z4, Z5, Z6, Z7)
	RA4_LOAD32(R14, Z8, Z9, Z10, Z11)
	RA4_LOAD32(BX, Z12, Z13, Z14, Z15)

loop4x32:
	RA4_LOAD32(R8, Z16, Z17, Z18, Z19)
	RA4_SKIPZERO((SI), row1x32)
	RA4_MAC4((SI), Z0, Z1, Z2, Z3)

row1x32:
	RA4_SKIPZERO((SI)(R9*1), row2x32)
	RA4_MAC4((SI)(R9*1), Z4, Z5, Z6, Z7)

row2x32:
	RA4_SKIPZERO((SI)(R9*2), row3x32)
	RA4_MAC4((SI)(R9*2), Z8, Z9, Z10, Z11)

row3x32:
	RA4_SKIPZERO((SI)(R11*1), next4x32)
	RA4_MAC4((SI)(R11*1), Z12, Z13, Z14, Z15)

next4x32:
	RA4_NEXT(loop4x32)
	RA4_STORE32(DI, Z0, Z1, Z2, Z3)
	RA4_STORE32(R13, Z4, Z5, Z6, Z7)
	RA4_STORE32(R14, Z8, Z9, Z10, Z11)
	RA4_STORE32(BX, Z12, Z13, Z14, Z15)
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
