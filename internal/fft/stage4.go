package fft

import "fmt"

// One butterfly stage of a four-lane transform — the inner loop of both
// batch-engine transforms (inversePruned4 and forwardPruned4). A four-lane
// buffer holds four rows or columns interleaved, x[4·i+lane], so lane
// group i is 64 bytes. On amd64 hosts with AVX the stage runs as
// assembly (stage4_amd64.s), two 256-bit registers per lane group;
// everywhere else it runs stage4Generic.
//
// Bit-identity: the assembly performs exactly the IEEE-754 operations of
// stage4Generic. Go evaluates the complex product w·v as
// re = w.re·v.re − w.im·v.im and im = w.re·v.im + w.im·v.re, each product
// and sum rounded on its own (amd64 never fuses them into an FMA). The
// kernel forms the same four products with VMULPD — v times broadcast w.re,
// and v with re/im swapped times broadcast w.im — the difference and sum
// with one VADDSUBPD, then u + t and u − t with VADDPD and VSUBPD. IEEE-754
// multiplication and addition are commutative, so operand order inside an
// instruction changes no bit; the kernel must never use an FMA.
// TestStage4MatchesGeneric holds the two paths to tolerance 0.
//
// The intensity fold behind the column pass, fold4, follows the same
// discipline: Go evaluates fb[i] += w·(re² + im²) as two products, a sum,
// a product and a sum, each rounded on its own, and foldAVX performs those
// five operations four values at a time (TestFoldMatchesGeneric). So does
// the adjoint's tile gather (gatherTiles in adjoint.go): Go evaluates
// t·complex(d, 0) as re = t.re·d − t.im·0 and im = t.re·0 + t.im·d, and
// gatherAVX forms the same four products, the products by zero included
// (they carry NaN, Inf and −0), and the two sums with one VADDSUBPD
// (TestGatherMatchesGeneric).

// Kernel names the kernel the four-lane transforms, the intensity fold and
// the tile gather run on this host: "avx" (256-bit assembly) or "generic"
// (the portable Go loops, on other platforms and on CPUs without
// OS-enabled AVX). It is fixed at package init.
func Kernel() string {
	if useAVX {
		return "avx"
	}
	return "generic"
}

// stage4 runs one butterfly stage over the four-lane buffer x (4·N
// values): for every block b of 2·half lane groups, unless nz is non-nil
// and nz[b] is false, butterflies j = j0 … j0+len(tw)−1 map
//
//	(x[k+j], x[k+j+half]) ← (u + w·v, u − w·v),   w = tw[j−j0],
//
// on all four lanes, where k = 2·half·b. The schedule is checked once
// here; the kernel behind it has no bounds checks.
func stage4(x []complex128, half, j0 int, tw []complex128, nz []bool) {
	n := len(x) / 4
	switch {
	case len(x)%4 != 0:
		panic(fmt.Sprintf("fft: four-lane buffer length %d is not a multiple of 4", len(x)))
	case half < 1 || half&(half-1) != 0 || n%(2*half) != 0:
		panic(fmt.Sprintf("fft: stage half-block %d is not a power of two dividing %d/2", half, n))
	case j0 < 0 || j0+len(tw) > half:
		panic(fmt.Sprintf("fft: butterflies [%d, %d) outside half-block %d", j0, j0+len(tw), half))
	case nz != nil && len(nz) != n/(2*half):
		panic(fmt.Sprintf("fft: %d block flags for %d blocks", len(nz), n/(2*half)))
	}
	if len(tw) == 0 || n == 0 {
		return
	}
	bflyStage4(x, half, j0, tw, nz)
}

// stage4Generic is stage4's portable loop: the only path on hosts without
// the assembly kernel, and the oracle the kernel is tested against.
func stage4Generic(x []complex128, half, j0 int, tw []complex128, nz []bool) {
	blk := 2 * half
	for b, k := 0, 0; k < len(x)/4; b, k = b+1, k+blk {
		if nz != nil && !nz[b] {
			continue
		}
		for jr, twj := range tw {
			a := 4 * (k + j0 + jr)
			c := a + 4*half
			// Length-capped reslices: one slice check per four-lane operand
			// instead of four element checks.
			xa, xb := x[a:a+4:a+4], x[c:c+4:c+4]
			t0 := twj * xb[0]
			t1 := twj * xb[1]
			t2 := twj * xb[2]
			t3 := twj * xb[3]
			u0, u1, u2, u3 := xa[0], xa[1], xa[2], xa[3]
			xa[0] = u0 + t0
			xa[1] = u1 + t1
			xa[2] = u2 + t2
			xa[3] = u3 + t3
			xb[0] = u0 - t0
			xb[1] = u1 - t1
			xb[2] = u2 - t2
			xb[3] = u3 - t3
		}
	}
}

// fold4 adds w·|cb[i]|² to fb[i] for every i < len(fb): one kernel's share
// of a four-column intensity block, fb[i] += w·(re² + im²). The shape is
// checked here; the kernel behind it has no bounds checks.
func fold4(fb []float64, cb []complex128, w float64) {
	if len(cb) < len(fb) || len(fb)%4 != 0 {
		panic(fmt.Sprintf("fft: fold of %d intensities from %d amplitudes (want a multiple of 4 and at least as many amplitudes)", len(fb), len(cb)))
	}
	if len(fb) == 0 {
		return
	}
	foldBlock(fb, cb, w)
}

// foldGeneric is fold4's portable loop: the only path on hosts without the
// assembly kernel, and the oracle the kernel is tested against.
func foldGeneric(fb []float64, cb []complex128, w float64) {
	// One reslice per call, so the loop below indexes fb check-free.
	cb = cb[:len(fb)]
	for i, c := range cb {
		re, im := real(c), imag(c)
		fb[i] += w * (re*re + im*im)
	}
}
