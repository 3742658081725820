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

// func gatherAVX(band, amp []complex128, d []float64, rev []int32, y0 int)
//
// n = len(rev). For each column block x0 (rev, tile and d advance by one
// block) and each four-row group g of the band, one 4×4 block: row lane's
// four tile values t are two YMM registers, its four d values are
// broadcast across their complex slots (d0 d0 | d1 d1, d2 d2 | d3 d3),
// and
//
//	p = VADDSUBPD(t·d, swap(t)·(+0))   even: t.re·d − t.im·0
//	                                   odd:  t.im·d + t.re·0
//
// the four products and two sums of Go's t·complex(d, 0). The products by
// zero stay: they carry NaN, Inf and −0 as the Go expression does. The
// block is then transposed with VPERM2F128 and column c's four lanes
// (64 B) are stored at band[g·4n + 4·rev(x0+c)]. No FMA.
TEXT ·gatherAVX(SB), NOSPLIT, $0-104
	MOVQ  band_base+0(FP), DI
	MOVQ  band_len+8(FP), R8
	SHLQ  $4, R8
	ADDQ  DI, R8                   // one past the band's last group
	MOVQ  amp_base+24(FP), BX
	MOVQ  d_base+48(FP), CX
	MOVQ  rev_base+72(FP), R9
	MOVQ  rev_len+80(FP), R10      // n
	MOVQ  y0+96(FP), AX
	LEAQ  (R9)(R10*4), R12         // one past the last rev entry
	MOVQ  R10, R11
	SHLQ  $3, R11                  // bytes per d row: 8n
	MOVQ  AX, R13
	SHLQ  $6, R13
	ADDQ  R13, BX                  // tile: block 0, row y0
	IMULQ R10, AX
	LEAQ  (CX)(AX*8), CX           // d: row y0, column 0
	SHLQ  $6, R10                  // bytes per band group and per tile block: 64n
	VXORPD Y15, Y15, Y15           // +0

block:
	MOVQ band_base+0(FP), DI
	MOVQ BX, SI                    // tile of group 0
	MOVQ CX, DX                    // d of group 0

group:
	LEAQ           (DX)(R11*2), R13       // d row 2 of the group
	VBROADCASTF128 (DX), Y0
	VBROADCASTF128 16(DX), Y1
	VPERMILPD      $12, Y0, Y0            // d0 d0 | d1 d1
	VPERMILPD      $12, Y1, Y1            // d2 d2 | d3 d3
	VMOVUPD        (SI), Y6               // row lane 0: t0 t1
	VMOVUPD        32(SI), Y7             //             t2 t3
	VPERMILPD      $5, Y6, Y2
	VPERMILPD      $5, Y7, Y3
	VMULPD         Y0, Y6, Y6
	VMULPD         Y1, Y7, Y7
	VMULPD         Y15, Y2, Y2
	VMULPD         Y15, Y3, Y3
	VADDSUBPD      Y2, Y6, Y6             // p00 p01
	VADDSUBPD      Y3, Y7, Y7             // p02 p03

	VBROADCASTF128 (DX)(R11*1), Y0
	VBROADCASTF128 16(DX)(R11*1), Y1
	VPERMILPD      $12, Y0, Y0
	VPERMILPD      $12, Y1, Y1
	VMOVUPD        64(SI), Y8             // row lane 1
	VMOVUPD        96(SI), Y9
	VPERMILPD      $5, Y8, Y2
	VPERMILPD      $5, Y9, Y3
	VMULPD         Y0, Y8, Y8
	VMULPD         Y1, Y9, Y9
	VMULPD         Y15, Y2, Y2
	VMULPD         Y15, Y3, Y3
	VADDSUBPD      Y2, Y8, Y8             // p10 p11
	VADDSUBPD      Y3, Y9, Y9             // p12 p13

	VBROADCASTF128 (R13), Y0
	VBROADCASTF128 16(R13), Y1
	VPERMILPD      $12, Y0, Y0
	VPERMILPD      $12, Y1, Y1
	VMOVUPD        128(SI), Y10           // row lane 2
	VMOVUPD        160(SI), Y11
	VPERMILPD      $5, Y10, Y2
	VPERMILPD      $5, Y11, Y3
	VMULPD         Y0, Y10, Y10
	VMULPD         Y1, Y11, Y11
	VMULPD         Y15, Y2, Y2
	VMULPD         Y15, Y3, Y3
	VADDSUBPD      Y2, Y10, Y10           // p20 p21
	VADDSUBPD      Y3, Y11, Y11           // p22 p23

	VBROADCASTF128 (R13)(R11*1), Y0
	VBROADCASTF128 16(R13)(R11*1), Y1
	VPERMILPD      $12, Y0, Y0
	VPERMILPD      $12, Y1, Y1
	VMOVUPD        192(SI), Y12           // row lane 3
	VMOVUPD        224(SI), Y13
	VPERMILPD      $5, Y12, Y2
	VPERMILPD      $5, Y13, Y3
	VMULPD         Y0, Y12, Y12
	VMULPD         Y1, Y13, Y13
	VMULPD         Y15, Y2, Y2
	VMULPD         Y15, Y3, Y3
	VADDSUBPD      Y2, Y12, Y12           // p30 p31
	VADDSUBPD      Y3, Y13, Y13           // p32 p33

	MOVLQZX    (R9), AX
	SHLQ       $6, AX
	VPERM2F128 $0x20, Y8, Y6, Y4          // column 0: p00 | p10
	VPERM2F128 $0x20, Y12, Y10, Y5        //           p20 | p30
	VMOVUPD    Y4, (DI)(AX*1)
	VMOVUPD    Y5, 32(DI)(AX*1)
	MOVLQZX    4(R9), AX
	SHLQ       $6, AX
	VPERM2F128 $0x31, Y8, Y6, Y4          // column 1: p01 | p11
	VPERM2F128 $0x31, Y12, Y10, Y5        //           p21 | p31
	VMOVUPD    Y4, (DI)(AX*1)
	VMOVUPD    Y5, 32(DI)(AX*1)
	MOVLQZX    8(R9), AX
	SHLQ       $6, AX
	VPERM2F128 $0x20, Y9, Y7, Y4          // column 2: p02 | p12
	VPERM2F128 $0x20, Y13, Y11, Y5        //           p22 | p32
	VMOVUPD    Y4, (DI)(AX*1)
	VMOVUPD    Y5, 32(DI)(AX*1)
	MOVLQZX    12(R9), AX
	SHLQ       $6, AX
	VPERM2F128 $0x31, Y9, Y7, Y4          // column 3: p03 | p13
	VPERM2F128 $0x31, Y13, Y11, Y5        //           p23 | p33
	VMOVUPD    Y4, (DI)(AX*1)
	VMOVUPD    Y5, 32(DI)(AX*1)

	ADDQ $256, SI                         // next group: four tile rows
	LEAQ (DX)(R11*4), DX                  //             four d rows
	ADDQ R10, DI                          //             one band group
	CMPQ DI, R8
	JCS  group

	ADDQ $16, R9                          // next block: four rev entries
	ADDQ R10, BX                          //             4n tile values
	ADDQ $32, CX                          //             four d columns
	CMPQ R9, R12
	JCS  block
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
