package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/post"
)

// Measured is one evaluated method run: the contest metrics in nm² plus the
// TAT split the paper reports (ILT iterations vs post-processing).
type Measured struct {
	Method  string
	Report  metrics.Report // areas in nm²
	ILTSec  float64
	PostSec float64
	Result  *core.Result // nil for non-core baselines
	Mask    *grid.Mat    // final cleaned mask
}

// evaluateMask runs the contest evaluation and scales areas to nm².
func (c Config) evaluateMask(sim *litho.Sim, m, target *grid.Mat) (metrics.Report, error) {
	rep, err := metrics.Evaluate(sim, m, target)
	if err != nil {
		return rep, err
	}
	return rep.Scale(c.PixelNM()), nil
}

// coreOptions is core.DefaultOptions over sim with the run's recorder, so a
// trace or the -v console carries the optimizer's stages, iterations and
// core.* phases.
func (c Config) coreOptions(sim *litho.Sim) core.Options {
	opts := core.DefaultOptions(sim)
	opts.Recorder = c.Recorder
	return opts
}

// runVia runs the via recipe (core.Recipe: its schedule, budgets divided
// by div, and its patience) on a target.
func (c Config) runVia(sim *litho.Sim, target *grid.Mat, div int) (*core.Result, error) {
	stages, patience, err := core.Recipe("via")
	if err != nil {
		return nil, err
	}
	opts := c.coreOptions(sim)
	opts.Patience = patience
	o, err := core.New(opts, target)
	if err != nil {
		return nil, err
	}
	return o.Run(context.Background(), core.ScaleStages(stages, div))
}

// runRecipe executes a multi-level ILT recipe (budgets divided by IterDiv),
// post-processes the mask, and evaluates it.
func (c Config) runRecipe(sim *litho.Sim, method string, target *grid.Mat, stages []core.Stage, region *grid.Mat, patience int) (Measured, error) {
	opts := c.coreOptions(sim)
	opts.Region = region
	opts.Patience = patience
	o, err := core.New(opts, target)
	if err != nil {
		return Measured{}, fmt.Errorf("%s: %w", method, err)
	}
	res, err := o.Run(context.Background(), core.ScaleStages(stages, c.IterDiv))
	if err != nil {
		return Measured{}, fmt.Errorf("%s: %w", method, err)
	}
	cleaned := post.Clean(res.Mask, target, post.DefaultOptions(c.PixelNM()))
	rep, err := c.evaluateMask(sim, cleaned.Mask, target)
	if err != nil {
		return Measured{}, fmt.Errorf("%s: %w", method, err)
	}
	rep.TAT = res.ILTSeconds + cleaned.Seconds
	return Measured{
		Method: method, Report: rep,
		ILTSec: res.ILTSeconds, PostSec: cleaned.Seconds,
		Result: res, Mask: cleaned.Mask,
	}, nil
}

// runAttention measures the A2-ILT-style baseline.
func (c Config) runAttention(sim *litho.Sim, target *grid.Mat, region *grid.Mat) (Measured, error) {
	iters := maxInt(1, 100/c.IterDiv)
	band := maxInt(2, int(24/c.PixelNM()))
	res, err := baselines.AttentionILT(sim, target, iters, band, region)
	if err != nil {
		return Measured{}, err
	}
	rep, err := c.evaluateMask(sim, res.Mask, target)
	if err != nil {
		return Measured{}, err
	}
	rep.TAT = res.ILTSeconds
	return Measured{Method: "A2-ILT-style (ours)", Report: rep, ILTSec: res.ILTSeconds, Result: res, Mask: res.Mask}, nil
}

// runLevelSet measures the GLS-ILT-style baseline.
func (c Config) runLevelSet(sim *litho.Sim, target *grid.Mat, region *grid.Mat) (Measured, error) {
	iters := maxInt(1, 100/c.IterDiv)
	res, err := baselines.LevelSetILT(baselines.LevelSetOptions{
		Sim: sim, Iters: iters, Region: region, Recorder: c.Recorder,
	}, target)
	if err != nil {
		return Measured{}, err
	}
	rep, err := c.evaluateMask(sim, res.Mask, target)
	if err != nil {
		return Measured{}, err
	}
	rep.TAT = res.ILTSeconds
	return Measured{Method: "GLS-ILT-style (ours)", Report: rep, ILTSec: res.ILTSeconds, Mask: res.Mask}, nil
}

// runPixel measures conventional full-resolution pixel ILT.
func (c Config) runPixel(sim *litho.Sim, target *grid.Mat, region *grid.Mat, iters int) (Measured, error) {
	res, err := baselines.PixelILT(sim, target, iters, region)
	if err != nil {
		return Measured{}, err
	}
	rep, err := c.evaluateMask(sim, res.Mask, target)
	if err != nil {
		return Measured{}, err
	}
	rep.TAT = res.ILTSeconds
	return Measured{Method: "Pixel-ILT", Report: rep, ILTSec: res.ILTSeconds, Result: res, Mask: res.Mask}, nil
}

// regions builds the option-1 and option-2 regions for a target.
func (c Config) regions(target *grid.Mat) (opt1, opt2 *grid.Mat, err error) {
	m1, m2 := c.RegionMargins()
	opt1, err = mask.Region(target, mask.Option1, m1)
	if err != nil {
		return nil, nil, err
	}
	opt2, err = mask.Region(target, mask.Option2, m2)
	return opt1, opt2, err
}

// m1Case generates one M1 case at this scale.
func (c Config) m1Case(index int) (bench.Case, error) {
	return bench.PaperCase(c.N, c.FieldNM, index)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
