#include "textflag.h"

// func stage4AVX(x []complex128, half, j0 int, tw []complex128, nz []bool)
//
// One lane group (four complex128, 64 bytes) is two YMM registers. Per
// butterfly, with w = tw[j−j0] broadcast as Y0 = w.re and Y1 = w.im:
//
//	t = VADDSUBPD(v·Y0, swap(v)·Y1)   even: v.re·w.re − v.im·w.im
//	                                  odd:  v.im·w.re + v.re·w.im
//	u ← u + t,  v ← u − t
//
// the operations of Go's complex128 w·v, u + t and u − t. No FMA.
TEXT ·stage4AVX(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R8
	SHLQ $4, R8                   // bytes of x: 64 per lane group
	MOVQ half+24(FP), R9
	SHLQ $6, R9                   // bytes from u to its partner v
	LEAQ (R9)(R9*1), R11          // bytes per block
	MOVQ j0+32(FP), AX
	SHLQ $6, AX
	ADDQ AX, DI                   // first butterfly of block 0
	LEAQ (DI)(R8*1), R12          // one past the last block
	MOVQ tw_base+40(FP), SI
	MOVQ tw_len+48(FP), CX
	SHLQ $4, CX                   // bytes of tw
	MOVQ nz_base+64(FP), R10      // nil: every block runs

block:
	TESTQ R10, R10
	JZ    run
	MOVBLZX (R10), AX
	INCQ  R10
	TESTL AX, AX
	JZ    next

run:
	MOVQ DI, BX                   // u
	LEAQ (DI)(R9*1), DX           // v
	XORQ AX, AX                   // byte offset into tw

bfly:
	VBROADCASTSD (SI)(AX*1), Y0
	VBROADCASTSD 8(SI)(AX*1), Y1
	VMOVUPD      (DX), Y2
	VMOVUPD      32(DX), Y6
	VPERMILPD    $5, Y2, Y3
	VPERMILPD    $5, Y6, Y7
	VMULPD       Y0, Y2, Y2
	VMULPD       Y0, Y6, Y6
	VMULPD       Y1, Y3, Y3
	VMULPD       Y1, Y7, Y7
	VADDSUBPD    Y3, Y2, Y2       // t, lanes 0–1
	VADDSUBPD    Y7, Y6, Y6       // t, lanes 2–3
	VMOVUPD      (BX), Y4
	VMOVUPD      32(BX), Y8
	VADDPD       Y2, Y4, Y5
	VSUBPD       Y2, Y4, Y4
	VADDPD       Y6, Y8, Y9
	VSUBPD       Y6, Y8, Y8
	VMOVUPD      Y5, (BX)
	VMOVUPD      Y9, 32(BX)
	VMOVUPD      Y4, (DX)
	VMOVUPD      Y8, 32(DX)
	ADDQ         $64, BX
	ADDQ         $64, DX
	ADDQ         $16, AX
	CMPQ         AX, CX
	JLT          bfly

next:
	ADDQ R11, DI
	CMPQ DI, R12
	JCS  block
	VZEROUPPER
	RET

// func foldAVX(fb []float64, cb []complex128, w float64)
//
// Four values per pass: two YMM registers of amplitudes (c0 c1, c2 c3)
// are squared, regrouped into re² and im² of the four values, summed,
// scaled by the broadcast w and added to the intensities:
//
//	fb[i] += w·(re² + im²)
//
// the five operations of the Go loop, each rounded on its own. No FMA.
TEXT ·foldAVX(SB), NOSPLIT, $0-56
	MOVQ         fb_base+0(FP), DI
	MOVQ         fb_len+8(FP), CX
	SHLQ         $3, CX                 // bytes of fb: 32 per four values
	LEAQ         (DI)(CX*1), R8         // one past the last intensity
	MOVQ         cb_base+24(FP), SI
	VBROADCASTSD w+48(FP), Y0

fold:
	VMOVUPD    (SI), Y1                 // re0 im0 | re1 im1
	VMOVUPD    32(SI), Y2               // re2 im2 | re3 im3
	VMULPD     Y1, Y1, Y1
	VMULPD     Y2, Y2, Y2
	VPERM2F128 $0x20, Y2, Y1, Y3        // re0² im0² | re2² im2²
	VPERM2F128 $0x31, Y2, Y1, Y4        // re1² im1² | re3² im3²
	VUNPCKLPD  Y4, Y3, Y5               // re0² re1² | re2² re3²
	VUNPCKHPD  Y4, Y3, Y6               // im0² im1² | im2² im3²
	VADDPD     Y6, Y5, Y5               // re² + im²
	VMULPD     Y0, Y5, Y5               // w·(re² + im²)
	VADDPD     (DI), Y5, Y5             // fb + w·(re² + im²)
	VMOVUPD    Y5, (DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	CMPQ       DI, R8
	JCS        fold
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
