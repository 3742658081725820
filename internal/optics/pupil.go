package optics

import (
	"math"
	"math/cmplx"
)

// Small aliases keep the source/pupil formulas readable.
const pi = math.Pi

func cos(x float64) float64 { return math.Cos(x) }
func sin(x float64) float64 { return math.Sin(x) }

// Pupil evaluates the projection-lens pupil function at spatial frequency
// (fx, fy) in nm⁻¹ for the given defocus (nm). Inside the numerical aperture
// the transmission is 1 with a paraxial defocus phase
//
//	φ(f) = −π · λ · δ · |f|²,
//
// the standard quadratic approximation of the defocus aberration; outside
// the aperture the pupil is opaque.
func Pupil(c Config, fx, fy, defocusNM float64) complex128 {
	f2 := fx*fx + fy*fy
	fc := c.NA / c.WavelengthNM
	if f2 > fc*fc {
		return 0
	}
	if defocusNM == 0 {
		return 1
	}
	return cmplx.Exp(complex(0, -pi*c.WavelengthNM*defocusNM*f2))
}

// pupilTable samples the pupil on the padded frequency grid that the
// shifted pupils of sourceColumns need: indices cover f + f_s for f in the
// kernel support and f_s in the source, i.e. signed frequencies within
// ±(h·Δf + maxSourceF).
type pupilTable struct {
	half int // table covers signed index −half..half
	step float64
	vals []complex128
}

func buildPupilTable(c Config, defocusNM float64, extraF float64) *pupilTable {
	step := c.FreqStep()
	half := c.kernelHalf() + int(math.Ceil(extraF/step)) + 1
	t := &pupilTable{half: half, step: step, vals: make([]complex128, (2*half+1)*(2*half+1))}
	for iy := -half; iy <= half; iy++ {
		for ix := -half; ix <= half; ix++ {
			t.vals[(iy+half)*(2*half+1)+ix+half] =
				Pupil(c, float64(ix)*step, float64(iy)*step, defocusNM)
		}
	}
	return t
}

// at evaluates the pupil at grid frequency (ix, iy) offset by a continuous
// source frequency (sfx, sfy). The source offset is rounded to the grid —
// the discretisation error is below the source-sampling error itself.
func (t *pupilTable) at(ix, iy int, sfx, sfy float64) complex128 {
	jx := ix + int(math.Round(sfx/t.step))
	jy := iy + int(math.Round(sfy/t.step))
	if jx < -t.half || jx > t.half || jy < -t.half || jy > t.half {
		return 0
	}
	return t.vals[(jy+t.half)*(2*t.half+1)+jx+t.half]
}
