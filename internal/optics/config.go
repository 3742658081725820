// Package optics synthesizes the SOCS (sum-of-coherent-systems) kernel sets
// that drive the Hopkins forward lithography model. The ICCAD 2013 contest
// shipped these kernels as opaque data files; here they are rebuilt from
// first principles: a partially coherent annular source is discretised, a
// defocus-capable pupil is sampled on the simulation frequency grid, and
// the dominant eigenpairs of the Hopkins transmission cross coefficient
// (TCC) become the kernels H_k and weights w_k of Eq. (2)/(3) in the
// paper. The TCC is V Vᴴ with one column of V per source point, so its
// eigenpairs follow exactly from the small Gram matrix Vᴴ V, which a
// Hermitian Jacobi solve diagonalises; the P²×P² TCC itself is never
// formed.
package optics

import (
	"fmt"
	"math"
)

// Config describes one optical column and simulation grid. The zero value is
// not usable; call Default first and override fields as needed. Config is
// comparable and doubles as the kernel-cache key.
type Config struct {
	// FieldNM is the physical side length of the simulated tile in nm.
	// The ICCAD 2013 benchmarks use 2048 nm (2048 px at 1 nm/px). The
	// frequency-grid spacing 1/FieldNM — and therefore the kernel support —
	// depends only on this, not on the pixel count, so the same kernels
	// serve every resolution level of the multi-level flow.
	FieldNM float64

	// WavelengthNM is the exposure wavelength λ (ArF immersion: 193 nm).
	WavelengthNM float64

	// NA is the numerical aperture of the projection optics.
	NA float64

	// SigmaIn and SigmaOut delimit the annular source in σ-space
	// (fractions of NA). SigmaIn = 0 degenerates to a circular source.
	SigmaIn, SigmaOut float64

	// NumKernels is N_k, the number of retained SOCS kernels (paper: 24).
	NumKernels int

	// KernelSize is P, the odd support of each kernel on the frequency
	// grid (paper: 35). Zero selects it automatically from the coherent
	// cutoff NA/λ, capped at 35.
	KernelSize int

	// DefocusNM is the focus offset used for the defocus kernel set that
	// feeds the "inner" process corner.
	DefocusNM float64

	// SourceGrid is the per-axis resolution of the source discretisation
	// (points are kept where σ_in ≤ |σ| ≤ σ_out).
	SourceGrid int

	// Shape selects the illumination geometry (default Annular).
	Shape SourceShape
}

// SourceShape enumerates the supported illumination geometries.
type SourceShape int

const (
	// Annular keeps the ring σ_in ≤ |σ| ≤ σ_out (the paper's setting).
	Annular SourceShape = iota
	// Circular is a conventional disk of radius σ_out (σ_in ignored).
	Circular
	// Dipole keeps two poles of the annulus on the X axis (±45° opening),
	// favouring vertical line/space patterns.
	Dipole
	// Quasar keeps four 45°-wide arcs centered on the diagonals, the
	// classic compromise for mixed horizontal/vertical layouts.
	Quasar
)

// String implements fmt.Stringer.
func (s SourceShape) String() string {
	switch s {
	case Annular:
		return "annular"
	case Circular:
		return "circular"
	case Dipole:
		return "dipole"
	case Quasar:
		return "quasar"
	default:
		return fmt.Sprintf("SourceShape(%d)", int(s))
	}
}

// Default returns the paper-scale configuration: a 2048 nm field, 193 nm
// immersion lithography with an annular source, 24 kernels of support 35.
func Default() Config {
	return Config{
		FieldNM:      2048,
		WavelengthNM: 193,
		NA:           1.35,
		SigmaIn:      0.6,
		SigmaOut:     0.9,
		NumKernels:   24,
		KernelSize:   0, // auto → 35 at the default field size
		DefocusNM:    25,
		SourceGrid:   11,
	}
}

// TestScale returns a reduced configuration suitable for unit tests: a small
// field and a coarse source so the kernels stay tiny while every code path
// is exercised.
func TestScale() Config {
	c := Default()
	c.FieldNM = 512
	c.NumKernels = 8
	c.SourceGrid = 7
	return c
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.FieldNM <= 0:
		return fmt.Errorf("optics: FieldNM must be positive, got %g", c.FieldNM)
	case c.WavelengthNM <= 0:
		return fmt.Errorf("optics: WavelengthNM must be positive, got %g", c.WavelengthNM)
	case c.NA <= 0:
		return fmt.Errorf("optics: NA must be positive, got %g", c.NA)
	case c.SigmaIn < 0 || c.SigmaOut <= 0 || c.SigmaIn >= c.SigmaOut:
		return fmt.Errorf("optics: bad annulus σ ∈ [%g, %g]", c.SigmaIn, c.SigmaOut)
	case c.SigmaOut > 1:
		return fmt.Errorf("optics: SigmaOut %g exceeds 1", c.SigmaOut)
	case c.NumKernels <= 0:
		return fmt.Errorf("optics: NumKernels must be positive, got %d", c.NumKernels)
	case c.KernelSize < 0 || (c.KernelSize > 0 && c.KernelSize%2 == 0):
		return fmt.Errorf("optics: KernelSize must be 0 (auto) or odd, got %d", c.KernelSize)
	case c.SourceGrid < 3:
		return fmt.Errorf("optics: SourceGrid must be ≥ 3, got %d", c.SourceGrid)
	case c.Shape < Annular || c.Shape > Quasar:
		return fmt.Errorf("optics: unknown source shape %d", c.Shape)
	}
	return nil
}

// FreqStep returns the frequency-grid spacing Δf = 1/FieldNM in nm⁻¹.
func (c Config) FreqStep() float64 { return 1 / c.FieldNM }

// CutoffFreq returns the incoherent cutoff NA(1+σ_out)/λ in nm⁻¹; no mask
// frequency beyond it reaches the wafer.
func (c Config) CutoffFreq() float64 {
	return c.NA * (1 + c.SigmaOut) / c.WavelengthNM
}

// kernelHalf returns the half-width h of the kernel support (P = 2h+1).
func (c Config) kernelHalf() int {
	if c.KernelSize > 0 {
		return c.KernelSize / 2
	}
	// Auto: follow the incoherent cutoff NA(1+σ_out)/λ. The contest
	// kernels truncate the faint outer band at P = 35; we follow the same
	// convention so the paper's N = 2048 px / 2048 nm, P = 35 holds.
	h := int(math.Floor(c.CutoffFreq() * c.FieldNM))
	if h > 17 {
		h = 17
	}
	if h < 2 {
		h = 2
	}
	return h
}

// P returns the kernel support size (odd).
func (c Config) P() int { return 2*c.kernelHalf() + 1 }
