package metrics

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/litho"
)

// Process-window analysis: the paper evaluates a single ±2% dose / defocus
// pair (Definition 2); production flows sweep a ladder of conditions. These
// helpers generalise PVBand to arbitrary dose excursions and report how the
// printed image degrades across the window — an extension used by the
// `window` experiment.

// WindowPoint is the evaluation of one process condition.
type WindowPoint struct {
	// Dose is the exposure scale factor (1 = nominal).
	Dose float64
	// Defocused reports whether the defocus kernel set was used.
	Defocused bool
	// Area is the printed area in px².
	Area float64
	// L2 is the squared L2 loss against the target in px².
	L2 float64
	// EPE is the violation count against the target.
	EPE int
}

// DoseWindow prints the mask at every dose in the ladder (at nominal focus
// and, when withDefocus is set, also defocused) and evaluates each
// condition against the target, with Evaluate's EPE geometry. All
// conditions share one mask spectrum and one SOCS pass per focus state.
func DoseWindow(sim *litho.Sim, maskImg, target *grid.Mat, doses []float64, withDefocus bool) ([]WindowPoint, error) {
	if len(doses) == 0 {
		return nil, fmt.Errorf("metrics: empty dose ladder")
	}
	for _, dose := range doses {
		if dose <= 0 {
			return nil, fmt.Errorf("metrics: non-positive dose %g", dose)
		}
	}
	focus := []litho.Corner{sim.Nominal()}
	if withDefocus {
		focus = append(focus, sim.Inner())
	}
	corners := make([]litho.Corner, 0, len(focus)*len(doses))
	for _, c := range focus {
		for _, dose := range doses {
			c.Dose = dose // the ladder supplies the dose
			corners = append(corners, c)
		}
	}
	zs, err := sim.Print(maskImg, corners...)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	spacingPx, thrPx := EPEPixels(sim.Model.Config.FieldNM / float64(maskImg.W))
	out := make([]WindowPoint, len(corners))
	for i, z := range zs {
		out[i] = WindowPoint{
			Dose:      corners[i].Dose,
			Defocused: i >= len(doses),
			Area:      z.Sum(),
			L2:        L2(z, target),
			EPE:       EPE(target, z, spacingPx, thrPx),
		}
	}
	return out, nil
}

// PVBandLadder generalises Definition 2 to a ladder of dose excursions:
// for each delta it returns the XOR area between the (defocus, 1−delta)
// and (nominal focus, 1+delta) prints. The paper's PVB is the delta = 0.02
// rung. Every rung shares one mask spectrum and one SOCS pass per focus
// state.
func PVBandLadder(sim *litho.Sim, maskImg *grid.Mat, deltas []float64) ([]float64, error) {
	corners := make([]litho.Corner, 0, 2*len(deltas))
	for _, d := range deltas {
		if d < 0 || d >= 1 {
			return nil, fmt.Errorf("metrics: dose delta %g outside [0, 1)", d)
		}
		inner, outer := sim.Inner(), sim.Outer()
		inner.Dose, outer.Dose = 1-d, 1+d // the ladder supplies the dose
		corners = append(corners, inner, outer)
	}
	out := make([]float64, 0, len(deltas))
	if len(deltas) == 0 {
		return out, nil
	}
	zs, err := sim.Print(maskImg, corners...)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	for i := range deltas {
		out = append(out, PVBand(zs[2*i], zs[2*i+1]))
	}
	return out, nil
}
