package fft

// useAVX reports whether the CPU has AVX and the OS saves its YMM state:
// CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), then XCR0 bits 1 (SSE)
// and 2 (AVX). The kernel needs nothing beyond AVX — no AVX2, no FMA.
var useAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xcr0()&6 == 6
}()

func bflyStage4(x []complex128, half, j0 int, tw []complex128, nz []bool) {
	if useAVX {
		stage4AVX(x, half, j0, tw, nz)
		return
	}
	stage4Generic(x, half, j0, tw, nz)
}

func foldBlock(fb []float64, cb []complex128, w float64) {
	if useAVX {
		foldAVX(fb, cb, w)
		return
	}
	foldGeneric(fb, cb, w)
}

func gatherBlock(band, amp []complex128, d []float64, rev []int32, y0 int) {
	if useAVX {
		gatherAVX(band, amp, d, rev, y0)
		return
	}
	gatherGeneric(band, amp, d, rev, y0)
}

// stage4AVX is stage4 in 256-bit AVX (stage4_amd64.s). It trusts its
// arguments: stage4 checks the schedule, and x and tw are non-empty.
//
//go:noescape
func stage4AVX(x []complex128, half, j0 int, tw []complex128, nz []bool)

// foldAVX is fold4 in 256-bit AVX (stage4_amd64.s), four values per pass.
// It trusts its arguments: fold4 checks that len(fb) is a non-zero multiple
// of 4 and that cb holds at least as many values.
//
//go:noescape
func foldAVX(fb []float64, cb []complex128, w float64)

// gatherAVX is gatherTiles' gather in 256-bit AVX (stage4_amd64.s), one
// 4×4 block per pass. It trusts its arguments: gatherTiles checks that
// band holds whole four-row groups inside the grid and that amp and d
// cover it.
//
//go:noescape
func gatherAVX(band, amp []complex128, d []float64, rev []int32, y0 int)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xcr0 returns the low word of extended control register 0 (XGETBV).
func xcr0() uint32
