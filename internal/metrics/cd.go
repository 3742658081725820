package metrics

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/optics"
)

// Critical-dimension measurement: the printed width of a feature along a
// cut line, swept through dose (and optionally focus) — the data behind
// Bossung plots and the standard way fabs quantify a process window.

// CutLine describes a CD measurement site: a 1-pixel-wide cut through a
// feature. Horizontal cuts measure the printed width along X at row Y;
// vertical cuts measure along Y at column X.
type CutLine struct {
	Horizontal bool
	// X, Y anchor the cut: for horizontal cuts Y is the row and X a point
	// inside the feature; vice versa for vertical cuts.
	X, Y int
}

// CD returns the printed critical dimension in pixels at the cut: the
// length of the contiguous printed run containing the anchor (0 when the
// anchor is unprinted).
func CD(z *grid.Mat, cut CutLine) (int, error) {
	if cut.X < 0 || cut.X >= z.W || cut.Y < 0 || cut.Y >= z.H {
		return 0, fmt.Errorf("metrics: cut anchor (%d,%d) outside %dx%d image", cut.X, cut.Y, z.W, z.H)
	}
	on := func(x, y int) bool { return z.Data[y*z.W+x] >= 0.5 }
	if !on(cut.X, cut.Y) {
		return 0, nil
	}
	n := 1
	if cut.Horizontal {
		for x := cut.X - 1; x >= 0 && on(x, cut.Y); x-- {
			n++
		}
		for x := cut.X + 1; x < z.W && on(x, cut.Y); x++ {
			n++
		}
	} else {
		for y := cut.Y - 1; y >= 0 && on(cut.X, y); y-- {
			n++
		}
		for y := cut.Y + 1; y < z.H && on(cut.X, y); y++ {
			n++
		}
	}
	return n, nil
}

// BossungPoint is one (dose, focus condition) → CD sample.
type BossungPoint struct {
	Dose      float64
	Defocused bool
	CDPx      int
}

// CDThroughDose prints the mask across the dose ladder at nominal focus
// and defocus and measures the CD at the cut — the Bossung data for one
// measurement site. All prints share one mask spectrum and one SOCS pass
// per focus state.
func CDThroughDose(sim *litho.Sim, maskImg *grid.Mat, cut CutLine, doses []float64) ([]BossungPoint, error) {
	if len(doses) == 0 {
		return nil, fmt.Errorf("metrics: empty dose ladder")
	}
	for _, d := range doses {
		if d <= 0 {
			return nil, fmt.Errorf("metrics: non-positive dose %g", d)
		}
	}
	corners := make([]litho.Corner, 0, 2*len(doses))
	for _, ks := range []*optics.KernelSet{sim.Model.Nominal, sim.Model.Defocus} {
		for _, d := range doses {
			corners = append(corners, litho.Corner{Name: "bossung", KS: ks, Dose: d})
		}
	}
	zs, err := sim.Print(maskImg, corners...)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := make([]BossungPoint, len(zs))
	for i, z := range zs {
		cd, err := CD(z, cut)
		if err != nil {
			return nil, err
		}
		out[i] = BossungPoint{Dose: corners[i].Dose, Defocused: i >= len(doses), CDPx: cd}
	}
	return out, nil
}
