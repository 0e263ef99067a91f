#include "go_asm.h"
#include "textflag.h"

// func adamAVX2(p, grad, m, v *float32, n int, k *adamStep)
//
// The ADAM update of updateGeneric, four elements per iteration in float64
// lanes. IEEE-754 multiply, add, divide and square root are correctly
// rounded, and VCVTPD2PS rounds like the scalar conversion, so each lane
// computes the bits of the Go loop: every product is its own VMULPD before
// its VADDPD (no fused multiply-add), and the operations are the Go
// expression's, in its order. The clip scale and the weight decay are
// applied only when their flags are set, as in the Go loop.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), CX
	MOVQ n+32(FP), BX
	MOVQ k+40(FP), AX

	VBROADCASTSD adamStep_b1(AX), Y8
	VBROADCASTSD adamStep_ob1(AX), Y9
	VBROADCASTSD adamStep_b2(AX), Y10
	VBROADCASTSD adamStep_ob2(AX), Y11
	VBROADCASTSD adamStep_c1(AX), Y12
	VBROADCASTSD adamStep_c2(AX), Y13
	VBROADCASTSD adamStep_lr(AX), Y14
	VBROADCASTSD adamStep_eps(AX), Y15
	MOVBLZX      adamStep_scaled(AX), R8
	MOVBLZX      adamStep_decay(AX), R9

loop:
	VMOVUPS (SI), X0
	TESTQ   R8, R8
	JZ      moments
	VBROADCASTSS adamStep_scale(AX), X1
	VMULPS  X1, X0, X0 // g *= scale
	VMOVUPS X0, (SI)

moments:
	VCVTPS2PD  X0, Y0         // g
	VCVTPS2PD  (DX), Y1
	VMULPD     Y8, Y1, Y1     // b1·m
	VMULPD     Y9, Y0, Y2     // (1-b1)·g
	VADDPD     Y2, Y1, Y1     // m
	VCVTPS2PD  (CX), Y3
	VMULPD     Y10, Y3, Y3    // b2·v
	VMULPD     Y11, Y0, Y2    // (1-b2)·g
	VMULPD     Y0, Y2, Y2     // (1-b2)·g·g
	VADDPD     Y2, Y3, Y3     // v
	VCVTPD2PSY Y1, X2
	VMOVUPS    X2, (DX)
	VCVTPD2PSY Y3, X2
	VMOVUPS    X2, (CX)
	VDIVPD     Y12, Y1, Y1    // mhat = m/c1
	VDIVPD     Y13, Y3, Y3    // vhat = v/c2
	VMULPD     Y14, Y1, Y1    // lr·mhat
	VSQRTPD    Y3, Y3
	VADDPD     Y15, Y3, Y3    // sqrt(vhat) + eps
	VDIVPD     Y3, Y1, Y1
	VCVTPD2PSY Y1, X1         // the update, rounded to float32
	VMOVUPS    (DI), X2       // p
	TESTQ      R9, R9
	JZ         apply
	VCVTPS2PD  X2, Y3
	VBROADCASTSD adamStep_lrwd(AX), Y4
	VMULPD     Y4, Y3, Y3     // lr·wd·p
	VCVTPD2PSY Y3, X3
	VSUBPS     X3, X2, X2     // p -= float32(lr·wd·p)

apply:
	VSUBPS  X1, X2, X2 // p -= float32(update)
	VMOVUPS X2, (DI)
	ADDQ    $16, DI
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, CX
	SUBQ    $4, BX
	JNZ     loop
	VZEROUPPER
	RET
