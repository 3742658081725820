package litho

import (
	"fmt"

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
// contest's 2%).
const DoseDelta = 0.02

// Process bundles the simulator with the contest process-window corners.
// PVBand is measured between the Inner and Outer corners (Definition 2):
// inner = defocus & −2% dose, outer = nominal focus & +2% dose. The resist
// is the contest's (Threshold, Alpha).
type Process struct {
	Sim *Sim
}

// NewProcess creates the paper's process description over a kernel model.
func NewProcess(model *optics.Model) *Process {
	return &Process{Sim: NewSim(model)}
}

// Nominal returns the nominal-focus, nominal-dose corner (used for Z_norm
// and the final L2 evaluation).
func (p *Process) Nominal() Corner {
	return Corner{Name: "nominal", KS: p.Sim.Model.Nominal, Dose: 1}
}

// Outer returns the max-CD corner: nominal focus, +2% dose.
func (p *Process) Outer() Corner {
	return Corner{Name: "outer", KS: p.Sim.Model.Nominal, Dose: 1 + DoseDelta}
}

// Inner returns the min-CD corner: defocus, −2% dose.
func (p *Process) Inner() Corner {
	return Corner{Name: "inner", KS: p.Sim.Model.Defocus, Dose: 1 - DoseDelta}
}

// Corners returns the three standard corners in (nominal, inner, outer) order.
func (p *Process) Corners() []Corner {
	return []Corner{p.Nominal(), p.Inner(), p.Outer()}
}

// Print runs the full binary print pipeline at one corner: exact forward
// simulation followed by the constant-threshold resist. This is the
// evaluation path (metrics are always computed on exact simulations).
func (p *Process) Print(mask *grid.Mat, c Corner) (*grid.Mat, error) {
	f, err := p.Sim.Forward(mask, c.KS, c.Dose, false)
	if err != nil {
		return nil, fmt.Errorf("litho: print at %s corner: %w", c.Name, err)
	}
	return ResistBinary(f.Intensity, Threshold), nil
}
