#include "textflag.h"

// The AVX2 bodies of the projection kernels. Each computes the exact bits
// of its Go reference in kernels.go: lanes run only across independent
// outputs, every product is a VMULPS/VMULSS rounded to float32 before its
// VADDPS/VADDSS (no fused multiply-add), and each output receives its
// additions in the reference's order. The Go callers reslice every operand
// to its exact length first and pass rows, cols > 0.

// func addMatVecAVX2(acc, x, w *float32, rows, cols int)
//
// acc[j] += x[i]·w[i*cols+j] in ascending i. A block of 32 (then 8)
// columns stays in registers while the row loop streams the weights, so
// each acc[j] is one addition chain in the reference order; the last
// cols mod 8 columns run the same loop one column at a time.
TEXT ·addMatVecAVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	LEAQ (BX*4), R8 // row stride in bytes
	XORQ R9, R9     // j

block32:
	LEAQ 32(R9), AX
	CMPQ AX, BX
	JGT  block8
	VMOVUPS (DI)(R9*4), Y0
	VMOVUPS 32(DI)(R9*4), Y1
	VMOVUPS 64(DI)(R9*4), Y2
	VMOVUPS 96(DI)(R9*4), Y3
	LEAQ (DX)(R9*4), R10 // &w[i*cols+j]
	XORQ R11, R11        // i

rows32:
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS       (R10), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R10), Y4, Y5
	VADDPS       Y5, Y1, Y1
	VMULPS       64(R10), Y4, Y5
	VADDPS       Y5, Y2, Y2
	VMULPS       96(R10), Y4, Y5
	VADDPS       Y5, Y3, Y3
	ADDQ         R8, R10
	INCQ         R11
	CMPQ         R11, CX
	JLT          rows32
	VMOVUPS      Y0, (DI)(R9*4)
	VMOVUPS      Y1, 32(DI)(R9*4)
	VMOVUPS      Y2, 64(DI)(R9*4)
	VMOVUPS      Y3, 96(DI)(R9*4)
	MOVQ         AX, R9
	JMP          block32

block8:
	LEAQ    8(R9), AX
	CMPQ    AX, BX
	JGT     tail
	VMOVUPS (DI)(R9*4), Y0
	LEAQ    (DX)(R9*4), R10
	XORQ    R11, R11

rows8:
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS       (R10), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         R8, R10
	INCQ         R11
	CMPQ         R11, CX
	JLT          rows8
	VMOVUPS      Y0, (DI)(R9*4)
	MOVQ         AX, R9
	JMP          block8

tail:
	CMPQ   R9, BX
	JGE    done
	VMOVSS (DI)(R9*4), X0
	LEAQ   (DX)(R9*4), R10
	XORQ   R11, R11

rows1:
	VMOVSS (SI)(R11*4), X4
	VMULSS (R10), X4, X5
	VADDSS X5, X0, X0
	ADDQ   R8, R10
	INCQ   R11
	CMPQ   R11, CX
	JLT    rows1
	VMOVSS X0, (DI)(R9*4)
	INCQ   R9
	JMP    tail

done:
	VZEROUPPER
	RET

// func outerAddAVX2(gw, x, dy *float32, rows, cols int)
//
// gw[i*cols+j] += x[i]·dy[j]: one addition per element, 8 lanes over j
// (32 columns per iteration while they last), the last cols mod 8
// elements of a row one at a time.
TEXT ·outerAddAVX2(SB), NOSPLIT, $0-40
	MOVQ gw+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ BX, R8
	ANDQ $-8, R8  // cols rounded down to a whole vector
	MOVQ BX, R10
	ANDQ $-32, R10 // ... and to a whole 32-column block

row:
	VBROADCASTSS (SI), Y4
	XORQ         R9, R9

block:
	CMPQ    R9, R10
	JGE     vec
	VMULPS  (DX)(R9*4), Y4, Y0
	VMULPS  32(DX)(R9*4), Y4, Y1
	VMULPS  64(DX)(R9*4), Y4, Y2
	VMULPS  96(DX)(R9*4), Y4, Y3
	VADDPS  (DI)(R9*4), Y0, Y0
	VADDPS  32(DI)(R9*4), Y1, Y1
	VADDPS  64(DI)(R9*4), Y2, Y2
	VADDPS  96(DI)(R9*4), Y3, Y3
	VMOVUPS Y0, (DI)(R9*4)
	VMOVUPS Y1, 32(DI)(R9*4)
	VMOVUPS Y2, 64(DI)(R9*4)
	VMOVUPS Y3, 96(DI)(R9*4)
	ADDQ    $32, R9
	JMP     block

vec:
	CMPQ    R9, R8
	JGE     scalar
	VMULPS  (DX)(R9*4), Y4, Y5
	VADDPS  (DI)(R9*4), Y5, Y5
	VMOVUPS Y5, (DI)(R9*4)
	ADDQ    $8, R9
	JMP     vec

scalar:
	CMPQ   R9, BX
	JGE    next
	VMULSS (DX)(R9*4), X4, X5
	VADDSS (DI)(R9*4), X5, X5
	VMOVSS X5, (DI)(R9*4)
	INCQ   R9
	JMP    scalar

next:
	LEAQ (DI)(BX*4), DI
	ADDQ $4, SI
	DECQ CX
	JNZ  row
	VZEROUPPER
	RET

// func dotRowsAVX2(dst, y, w *float32, rows, cols int, add bool)
//
// s = Σ_j y[j]·w[i*cols+j] as one chain over ascending j per row, then
// dst[i] = s (add: dst[i] += s). Lanes run across rows: a tile of eight
// rows keeps its eight chains in one register. Per block of eight columns
// the eight rows' products are computed in lanes over j, transposed in
// registers so that vector k holds column j+k of every row, and added to
// the chains for k = 0..7 in order; the last cols mod 8 columns are loaded
// one column at a time. So every chain is the reference's, only eight of
// them run side by side. rows is a multiple of 8.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-41
	MOVQ    dst+0(FP), DI
	MOVQ    y+8(FP), SI
	MOVQ    w+16(FP), DX
	MOVQ    rows+24(FP), CX
	MOVQ    cols+32(FP), BX
	MOVBLZX add+40(FP), AX
	LEAQ    (BX*4), R8      // row stride in bytes
	LEAQ    (R8)(R8*2), R12 // three rows
	MOVQ    BX, R13
	ANDQ    $-8, R13        // cols rounded down to a whole vector

tile:
	VXORPS Y9, Y9, Y9      // the chains start at +0, as `var s float32` does
	MOVQ   DX, R10         // &w[i*cols+j], rows i..i+3
	LEAQ   (DX)(R8*4), R11 // rows i+4..i+7
	XORQ   R9, R9          // j

block:
	CMPQ    R9, R13
	JGE     column
	VMOVUPS (SI)(R9*4), Y8
	VMULPS  (R10), Y8, Y0
	VMULPS  (R10)(R8*1), Y8, Y1
	VMULPS  (R10)(R8*2), Y8, Y2
	VMULPS  (R10)(R12*1), Y8, Y3
	VMULPS  (R11), Y8, Y4
	VMULPS  (R11)(R8*1), Y8, Y5
	VMULPS  (R11)(R8*2), Y8, Y6
	VMULPS  (R11)(R12*1), Y8, Y7

	// Transpose the 8×8 block of products: row r, column k → lane r of
	// vector k. Per 128-bit half, interleave row pairs, then row quads,
	// then join the halves.
	VUNPCKLPS Y1, Y0, Y10
	VUNPCKHPS Y1, Y0, Y1
	VUNPCKLPS Y3, Y2, Y0
	VUNPCKHPS Y3, Y2, Y3
	VUNPCKLPS Y5, Y4, Y2
	VUNPCKHPS Y5, Y4, Y5
	VUNPCKLPS Y7, Y6, Y4
	VUNPCKHPS Y7, Y6, Y7
	VSHUFPS   $0x44, Y0, Y10, Y6  // rows 0-3: columns 0 | 4
	VSHUFPS   $0xEE, Y0, Y10, Y11 // 1 | 5
	VSHUFPS   $0x44, Y3, Y1, Y10  // 2 | 6
	VSHUFPS   $0xEE, Y3, Y1, Y0   // 3 | 7
	VSHUFPS   $0x44, Y4, Y2, Y1   // rows 4-7: columns 0 | 4
	VSHUFPS   $0xEE, Y4, Y2, Y3   // 1 | 5
	VSHUFPS   $0x44, Y7, Y5, Y2   // 2 | 6
	VSHUFPS   $0xEE, Y7, Y5, Y4   // 3 | 7

	VPERM2F128 $0x20, Y1, Y6, Y5 // column j
	VADDPS     Y5, Y9, Y9
	VPERM2F128 $0x20, Y3, Y11, Y7
	VADDPS     Y7, Y9, Y9
	VPERM2F128 $0x20, Y2, Y10, Y5
	VADDPS     Y5, Y9, Y9
	VPERM2F128 $0x20, Y4, Y0, Y7
	VADDPS     Y7, Y9, Y9
	VPERM2F128 $0x31, Y1, Y6, Y5 // column j+4
	VADDPS     Y5, Y9, Y9
	VPERM2F128 $0x31, Y3, Y11, Y7
	VADDPS     Y7, Y9, Y9
	VPERM2F128 $0x31, Y2, Y10, Y5
	VADDPS     Y5, Y9, Y9
	VPERM2F128 $0x31, Y4, Y0, Y7
	VADDPS     Y7, Y9, Y9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $8, R9
	JMP        block

column:
	CMPQ         R9, BX
	JGE          tiledone
	VMOVSS       (R10), X0
	VINSERTPS    $0x10, (R10)(R8*1), X0, X0
	VINSERTPS    $0x20, (R10)(R8*2), X0, X0
	VINSERTPS    $0x30, (R10)(R12*1), X0, X0
	VMOVSS       (R11), X1
	VINSERTPS    $0x10, (R11)(R8*1), X1, X1
	VINSERTPS    $0x20, (R11)(R8*2), X1, X1
	VINSERTPS    $0x30, (R11)(R12*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSS (SI)(R9*4), Y8
	VMULPS       Y8, Y0, Y0
	VADDPS       Y0, Y9, Y9
	ADDQ         $4, R10
	ADDQ         $4, R11
	INCQ         R9
	JMP          column

tiledone:
	TESTQ   AX, AX
	JZ      store
	VADDPS  (DI), Y9, Y9

store:
	VMOVUPS Y9, (DI)
	ADDQ    $32, DI
	LEAQ    (DX)(R8*8), DX
	SUBQ    $8, CX
	JNZ     tile
	VZEROUPPER
	RET
