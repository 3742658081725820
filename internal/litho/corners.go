package litho

import (
	"repro/internal/grid"
	"repro/internal/optics"
)

// Corner is one process condition: a kernel set (focus state) plus a dose
// factor that scales the aerial intensity.
type Corner struct {
	Name string
	KS   *optics.KernelSet
	Dose float64
}

// DoseDelta is the ±dose excursion of the Inner and Outer corners (the
// contest's 2%). PVBand is measured between them (Definition 2): inner =
// defocus & −2% dose, outer = nominal focus & +2% dose.
const DoseDelta = 0.02

// Nominal returns the nominal-focus, nominal-dose corner (used for Z_norm
// and the final L2 evaluation).
func (s *Sim) Nominal() Corner {
	return Corner{Name: "nominal", KS: s.Model.Nominal, Dose: 1}
}

// Outer returns the max-CD corner: nominal focus, +2% dose.
func (s *Sim) Outer() Corner {
	return Corner{Name: "outer", KS: s.Model.Nominal, Dose: 1 + DoseDelta}
}

// Inner returns the min-CD corner: defocus, −2% dose.
func (s *Sim) Inner() Corner {
	return Corner{Name: "inner", KS: s.Model.Defocus, Dose: 1 - DoseDelta}
}

// Corners returns the three standard corners in (nominal, inner, outer) order.
func (s *Sim) Corners() []Corner {
	return []Corner{s.Nominal(), s.Inner(), s.Outer()}
}

// Print runs the binary print pipeline at every corner: one exact
// ForwardCorners call (one mask spectrum, one SOCS pass per kernel set)
// followed by the constant-threshold resist, in corner order. This is the
// evaluation path: metrics are always computed on exact simulations.
func (s *Sim) Print(mask *grid.Mat, corners ...Corner) ([]*grid.Mat, error) {
	fields, err := s.ForwardCorners(mask, corners, false)
	if err != nil {
		return nil, err
	}
	zs := make([]*grid.Mat, len(fields))
	for i, f := range fields {
		zs[i] = ResistBinary(f.Intensity, Threshold)
	}
	return zs, nil
}
