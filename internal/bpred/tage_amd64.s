#include "go_asm.h"
#include "textflag.h"

// The AVX2 TAGE stage: tageStage (tage.go) for eight lanes per half, the
// lane arrays of tageKernel read at the half's byte offset. Every
// instruction is VEX-encoded (scalars are broadcast from memory): one
// legacy-SSE instruction with dirty upper YMM state costs more than the
// whole kernel. Constant registers: Y2 p, Y14 path, Y13 newBit, Y12 pos,
// Y11 the history mask, Y10 ones, Y9 0xffff. DI is k, SI ghist, DX tags.

// FOLD updates fold j of the half at off into R, with the leaving history
// bits in Y1: R = ((f<<1 | newBit) ^ old<<outPt), then R ^= R>>width, masked.
#define FOLD(j, off, R) \
	VMOVDQU (tageKernel_fold+64*j+off)(DI), R; \
	VPSLLD  $1, R, R; \
	VPOR    Y13, R, R; \
	VPSLLVD (tageKernel_outPt+64*j+off)(DI), Y1, Y3; \
	VPXOR   Y3, R, R; \
	VPSRLVD (tageKernel_width+64*j+off)(DI), R, Y3; \
	VPXOR   Y3, R, R; \
	VPAND   (tageKernel_fmask+64*j+off)(DI), R, R; \
	VMOVDQU R, (tageKernel_fold+64*j+off)(DI)

// HALF runs the lanes at byte offset off and leaves their hit bits in R.
// Each gather reads a dword: ghist is padded by 3 bytes and tags by one
// entry, and the low byte or word is kept.
#define HALF(off, R) \
	VMOVDQU    (tageKernel_histLen+off)(DI), Y0; \
	VPSUBD     Y0, Y12, Y0; \
	VPAND      Y11, Y0, Y0; \
	VPCMPEQD   Y8, Y8, Y8; \
	VPGATHERDD Y8, (SI)(Y0*1), Y1; \
	VPAND      Y10, Y1, Y1; \
	FOLD(0, off, Y4); \
	FOLD(1, off, Y5); \
	FOLD(2, off, Y6); \
	VPSRLVD    (tageKernel_shift+off)(DI), Y2, Y7; \
	VPXOR      Y2, Y7, Y7; \
	VPXOR      Y14, Y7, Y7; \
	VPXOR      Y4, Y7, Y7; \
	VPAND      (tageKernel_idxMask+off)(DI), Y7, Y7; \
	VMOVDQU    Y7, (tageKernel_idx+off)(DI); \
	VPSLLD     $1, Y6, Y6; \
	VPXOR      Y5, Y6, Y6; \
	VPXOR      Y2, Y6, Y6; \
	VPAND      (tageKernel_tagMask+off)(DI), Y6, Y6; \
	VMOVDQU    Y6, (tageKernel_tag+off)(DI); \
	VPADDD     (tageKernel_tagOff+off)(DI), Y7, Y7; \
	VPCMPEQD   Y8, Y8, Y8; \
	VPGATHERDD Y8, (DX)(Y7*2), Y0; \
	VPAND      Y9, Y0, Y0; \
	VPCMPEQD   Y6, Y0, Y0; \
	VMOVMSKPS  Y0, R

// func tageStageAVX2(k *tageKernel, ghist []uint8, tags []uint16, p, path, newBit, pos, mask uint32, n int) (hits uint32)
TEXT ·tageStageAVX2(SB), NOSPLIT, $0-92
	MOVQ         k+0(FP), DI
	MOVQ         ghist_base+8(FP), SI
	MOVQ         tags_base+32(FP), DX
	LEAQ         p+56(FP), AX       // p, path, newBit, pos, mask: five dwords
	VPBROADCASTD (AX), Y2
	VPBROADCASTD 4(AX), Y14
	VPBROADCASTD 8(AX), Y13
	VPBROADCASTD 12(AX), Y12
	VPBROADCASTD 16(AX), Y11
	VPCMPEQD     Y9, Y9, Y9
	VPSRLD       $31, Y9, Y10
	VPSRLD       $16, Y9, Y9
	HALF(0, BX)
	HALF(32, AX)
	SHLL         $8, AX
	ORL          AX, BX
	MOVQ         n+80(FP), CX
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	ANDL         AX, BX
	VZEROUPPER
	MOVL         BX, hits+88(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
