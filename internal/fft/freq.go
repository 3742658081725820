package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Frequency-domain helpers. All spectra follow the standard FFT layout with
// DC at index (0, 0); a signed frequency f ∈ [-n/2, n/2) lives at index
// (f mod n). Optical kernels, by contrast, are small P×P arrays stored
// *centered*, with DC at (P/2, P/2); the helpers below translate between the
// two layouts.

// TruncateCentered extracts the m×m low-frequency block of an n×n spectrum
// (both in DC-at-zero layout): signed frequencies in [-m/2, m/2). This is
// the "reduction of the spatial domain equals truncation of the frequency
// domain" step of Eq. (7). m must be even, ≤ n, and divide n is not required.
func TruncateCentered(spec *grid.CMat, m int) *grid.CMat {
	if spec.W != spec.H {
		panic(fmt.Sprintf("fft: TruncateCentered needs a square spectrum, got %dx%d", spec.W, spec.H))
	}
	n := spec.W
	if m <= 0 || m > n || m%2 != 0 {
		panic(fmt.Sprintf("fft: TruncateCentered m=%d invalid for n=%d", m, n))
	}
	out := grid.NewCMat(m, m)
	for fy := -m / 2; fy < m/2; fy++ {
		sy := (fy + n) % n
		oy := (fy + m) % m
		for fx := -m / 2; fx < m/2; fx++ {
			sx := (fx + n) % n
			ox := (fx + m) % m
			out.Data[oy*m+ox] = spec.Data[sy*n+sx]
		}
	}
	return out
}

// EmbedCentered zero-pads an m×m spectrum into an n×n one, the inverse
// placement of TruncateCentered (used by adjoint computations).
func EmbedCentered(spec *grid.CMat, n int) *grid.CMat {
	if spec.W != spec.H {
		panic(fmt.Sprintf("fft: EmbedCentered needs a square spectrum, got %dx%d", spec.W, spec.H))
	}
	m := spec.W
	if n < m || m%2 != 0 {
		panic(fmt.Sprintf("fft: EmbedCentered n=%d invalid for m=%d", n, m))
	}
	out := grid.NewCMat(n, n)
	for fy := -m / 2; fy < m/2; fy++ {
		sy := (fy + m) % m
		oy := (fy + n) % n
		for fx := -m / 2; fx < m/2; fx++ {
			sx := (fx + m) % m
			ox := (fx + n) % n
			out.Data[oy*n+ox] = spec.Data[sy*m+sx]
		}
	}
	return out
}

// CropBand writes the centered P×P band of the n×n DC-at-zero spectrum
// spec into dst (P = dst.W, odd, P ≤ n): dst[fy+h, fx+h] = spec[fy mod n,
// fx mod n] for |fx|, |fy| ≤ h = P/2 — the layout of the kernels and of
// ForwardRealBand. It moves values and computes nothing.
func CropBand(dst, spec *grid.CMat) {
	n, p := spec.W, dst.W
	if spec.H != n || dst.H != p || p%2 == 0 || p > n {
		panic(fmt.Sprintf("fft: CropBand needs an odd square band no larger than the square spectrum, got %dx%d from %dx%d", dst.W, dst.H, spec.W, spec.H))
	}
	h := p / 2
	for fy := -h; fy <= h; fy++ {
		sy := (fy + n) % n
		for fx := -h; fx <= h; fx++ {
			dst.Data[(fy+h)*p+fx+h] = spec.Data[sy*n+(fx+n)%n]
		}
	}
}

// ApplyKernel multiplies a centered P×P kernel into a centered S×S band
// spectrum (S odd, S ≥ P; ForwardRealBand or CropBand writes one) and
// writes the product into an m×m DC-at-zero spectrum (square), zeroing
// everything outside the kernel support:
//
//	out[f] = scale · K[f] · spec[f]   for |f_x|,|f_y| ≤ P/2, else 0.
//
// The band is the same whatever grid the spectrum was taken at: with the
// band of the m×m mask spectrum this is the per-kernel product of Eq. (3);
// with the band of the n×n one, m = n/s and scale = 1/s² it is exactly
// Eq. (7)'s truncated product (the kernel support lies inside the retained
// band, so nothing is lost). dst is reused if it has the right size; pass
// nil to allocate. P must be odd and ≤ m.
func ApplyKernel(dst *grid.CMat, spec *grid.CMat, kernel *grid.CMat, m int, scale complex128) *grid.CMat {
	if spec.W != spec.H || spec.W%2 == 0 {
		panic(fmt.Sprintf("fft: ApplyKernel needs an odd square band spectrum, got %dx%d", spec.W, spec.H))
	}
	if kernel.W != kernel.H || kernel.W%2 == 0 {
		panic(fmt.Sprintf("fft: kernel must be odd square, got %dx%d", kernel.W, kernel.H))
	}
	ps := spec.W
	p := kernel.W
	if p > m || p > ps {
		panic(fmt.Sprintf("fft: ApplyKernel sizes P=%d m=%d S=%d violate P ≤ m and P ≤ S", p, m, ps))
	}
	if dst == nil || dst.W != m || dst.H != m {
		dst = grid.NewCMat(m, m)
	} else {
		dst.Zero()
	}
	h, hs := p/2, ps/2
	for fy := -h; fy <= h; fy++ {
		sy := (fy+hs)*ps + hs
		oy := (fy + m) % m
		ky := (fy + h) * p
		for fx := -h; fx <= h; fx++ {
			ox := (fx + m) % m
			dst.Data[oy*m+ox] = scale * kernel.Data[ky+fx+h] * spec.Data[sy+fx]
		}
	}
	return dst
}

// AccumulateKernelAdjoint scatters conj(K)·g (g an m×m spectrum) back into
// an n×n spectrum accumulator, the adjoint of ApplyKernel. Used to assemble
// the mask gradient in the frequency domain.
func AccumulateKernelAdjoint(acc *grid.CMat, g *grid.CMat, kernel *grid.CMat, scale complex128) {
	if acc.W != acc.H || g.W != g.H {
		panic("fft: AccumulateKernelAdjoint needs square matrices")
	}
	n, m, p := acc.W, g.W, kernel.W
	if p > m || m > n {
		panic(fmt.Sprintf("fft: AccumulateKernelAdjoint sizes P=%d m=%d n=%d violate P ≤ m ≤ n", p, m, n))
	}
	h := p / 2
	for fy := -h; fy <= h; fy++ {
		gy := (fy + m) % m
		ay := (fy + n) % n
		ky := (fy + h) * p
		for fx := -h; fx <= h; fx++ {
			gx := (fx + m) % m
			ax := (fx + n) % n
			k := kernel.Data[ky+fx+h]
			acc.Data[ay*n+ax] += scale * complex(real(k), -imag(k)) * g.Data[gy*m+gx]
		}
	}
}

// KernelAdjointPatch gathers the per-kernel adjoint product of
// AccumulateKernelAdjoint into a dense P×P patch (centered layout, like the
// kernel itself) instead of scattering it into the accumulator:
//
//	patch[fy+h, fx+h] = scale · conj(K[f]) · g[f]   for |f_x|,|f_y| ≤ h = P/2.
//
// AddKernelPatch then scatters patch += into an n×n spectrum. Splitting the
// adjoint this way lets the per-kernel products run in parallel while the
// accumulation stays a strictly ordered (hence deterministic) serial fold:
// compute-then-add performs the identical floating-point operations as the
// fused AccumulateKernelAdjoint loop. dst is reused if it has the right
// size; pass nil to allocate.
func KernelAdjointPatch(dst *grid.CMat, g *grid.CMat, kernel *grid.CMat, scale complex128) *grid.CMat {
	if g.W != g.H {
		panic("fft: KernelAdjointPatch needs a square spectrum")
	}
	m, p := g.W, kernel.W
	if kernel.W != kernel.H || p%2 == 0 || p > m {
		panic(fmt.Sprintf("fft: KernelAdjointPatch sizes P=%d m=%d invalid", p, m))
	}
	if dst == nil || dst.W != p || dst.H != p {
		dst = grid.NewCMat(p, p)
	}
	h := p / 2
	for fy := -h; fy <= h; fy++ {
		gy := (fy + m) % m
		ky := (fy + h) * p
		for fx := -h; fx <= h; fx++ {
			gx := (fx + m) % m
			k := kernel.Data[ky+fx+h]
			dst.Data[ky+fx+h] = scale * complex(real(k), -imag(k)) * g.Data[gy*m+gx]
		}
	}
	return dst
}

// AddKernelPatch accumulates a centered P×P patch (as produced by
// KernelAdjointPatch) into an n×n DC-at-zero spectrum.
func AddKernelPatch(acc *grid.CMat, patch *grid.CMat) {
	if acc.W != acc.H || patch.W != patch.H || patch.W%2 == 0 {
		panic("fft: AddKernelPatch needs a square accumulator and an odd square patch")
	}
	n, p := acc.W, patch.W
	if p > n {
		panic(fmt.Sprintf("fft: AddKernelPatch patch %d larger than spectrum %d", p, n))
	}
	h := p / 2
	for fy := -h; fy <= h; fy++ {
		ay := (fy + n) % n
		ky := (fy + h) * p
		for fx := -h; fx <= h; fx++ {
			ax := (fx + n) % n
			acc.Data[ay*n+ax] += patch.Data[ky+fx+h]
		}
	}
}

// Shift returns the spectrum with DC moved to the center (for display) or
// back (the operation is an involution for even sizes).
func Shift(m *grid.CMat) *grid.CMat {
	out := grid.NewCMat(m.W, m.H)
	hw, hh := m.W/2, m.H/2
	for y := 0; y < m.H; y++ {
		yy := (y + hh) % m.H
		for x := 0; x < m.W; x++ {
			xx := (x + hw) % m.W
			out.Data[yy*m.W+xx] = m.Data[y*m.W+x]
		}
	}
	return out
}
