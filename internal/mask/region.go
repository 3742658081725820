package mask

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Optimization regions (Fig. 7 of the paper). Every baseline restricts mask
// edits to a region around the target; the two conventions in the
// literature differ in how much room they leave for SRAFs:
//
//   - Option 1 (Neural-ILT, A2-ILT): a tight region hugging each feature —
//     modelled here as the Chebyshev dilation of the target by a margin.
//   - Option 2 (GLS-ILT, DevelSet): one large region around the whole
//     layout — modelled as the dilated union bounding box of all features.
//
// A region is a 0/1 matrix; gradients are zeroed outside it, so pixels
// beyond the region keep their initial value.

// RegionOption identifies the optimizing-region convention.
type RegionOption int

const (
	// Option1 is the tight per-feature region.
	Option1 RegionOption = 1
	// Option2 is the loose whole-layout region.
	Option2 RegionOption = 2
)

// Region builds the optimization region for a target under the given
// option. Margins are in pixels; the paper's figures suggest roughly
// 40–60 nm for option 1 and twice that for option 2 at 1 nm/px.
func Region(target *grid.Mat, opt RegionOption, marginPx int) (*grid.Mat, error) {
	switch opt {
	case Option1:
		return geom.DilateBox(target, marginPx), nil
	case Option2:
		comps := geom.Components(target)
		out := grid.NewMat(target.W, target.H)
		if len(comps) == 0 {
			return out, nil
		}
		bb := comps[0].BBox
		for _, c := range comps[1:] {
			bb = bb.Union(c.BBox)
		}
		bb.X0 -= marginPx
		bb.Y0 -= marginPx
		bb.X1 += marginPx
		bb.Y1 += marginPx
		geom.FillRect(out, bb, 1)
		return out, nil
	default:
		return nil, fmt.Errorf("mask: unknown region option %d", opt)
	}
}

// ApplyRegion zeroes g outside the region in place (the gradient mask of
// the constrained update).
func ApplyRegion(g, region *grid.Mat) {
	if g.W != region.W || g.H != region.H {
		panic(fmt.Sprintf("mask: gradient %dx%d vs region %dx%d", g.W, g.H, region.W, region.H))
	}
	for i, r := range region.Data {
		if r < 0.5 {
			g.Data[i] = 0
		}
	}
}
