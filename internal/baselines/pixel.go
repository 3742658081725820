// Package baselines implements the comparison methods the paper evaluates
// against, to the extent they are reproducible without trained neural
// networks:
//
//   - PixelILT — conventional full-resolution pixel ILT (Poonawala-style
//     gradient descent with the T_R = 0 sigmoid binary function), the
//     "ILT w/o downsampling" column of Table I and the non-learned core
//     shared by Neural-ILT's refinement stage;
//   - AttentionILT — an A2-ILT-style variant: pixel ILT with a spatial
//     attention map concentrated on feature boundaries and 3×3 gradient
//     pooling against holes/outliers;
//   - LevelSetILT — a GLS-ILT-style mask parametrisation by a signed
//     distance level-set function evolved with the lithography gradient.
//
// Neural-ILT [4] and DevelSet [5] require trained models and training data;
// their table columns are reproduced from the paper's reported numbers (see
// internal/experiments) rather than reimplemented — DESIGN.md documents the
// substitution.
package baselines

import (
	"context"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
)

// PixelILT runs conventional pixel-based ILT: full resolution, T_R = 0,
// no smoothing pooling, no multi-level schedule.
func PixelILT(sim *litho.Sim, target *grid.Mat, iters int, region *grid.Mat) (*core.Result, error) {
	opts := core.DefaultOptions(sim)
	opts.Binary = mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0}
	opts.OutputTR = 0
	opts.SmoothWindow = 0
	opts.Region = region
	o, err := core.New(opts, target)
	if err != nil {
		return nil, err
	}
	return o.Run(context.Background(), []core.Stage{{Scale: 1, Iters: iters}})
}

// AttentionILT runs the A2-ILT-style baseline: conventional pixel ILT whose
// gradient is (a) smoothed by a 3×3 stride-1 average pool (the hole/outlier
// suppression of [7], [8]) and (b) modulated by a spatial attention map that
// boosts the band around feature boundaries, standing in for the learned
// attention of A2-ILT. bandPx sets the half-width of the boosted band.
func AttentionILT(sim *litho.Sim, target *grid.Mat, iters, bandPx int, region *grid.Mat) (*core.Result, error) {
	if bandPx < 1 {
		bandPx = 1
	}
	attention := AttentionMap(target, bandPx, 1.5)
	opts := core.DefaultOptions(sim)
	opts.Binary = mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0}
	opts.OutputTR = 0
	opts.SmoothWindow = 0
	opts.Region = region
	opts.GradHook = func(g *grid.Mat, st core.Stage) {
		sm := grid.SmoothPool(g, 3)
		copy(g.Data, sm.Data)
		if g.W == attention.W {
			g.MulElem(attention)
		}
	}
	o, err := core.New(opts, target)
	if err != nil {
		return nil, err
	}
	return o.Run(context.Background(), []core.Stage{{Scale: 1, Iters: iters}})
}

// AttentionMap builds the boundary-band attention: 1 everywhere, 1+boost on
// pixels within bandPx of a feature edge (inside or outside).
func AttentionMap(target *grid.Mat, bandPx int, boost float64) *grid.Mat {
	dil := dilate(target, bandPx)
	ero := erode(target, bandPx)
	a := grid.NewMat(target.W, target.H)
	for i := range a.Data {
		a.Data[i] = 1
		if dil.Data[i] >= 0.5 && ero.Data[i] < 0.5 {
			a.Data[i] += boost
		}
	}
	return a
}
