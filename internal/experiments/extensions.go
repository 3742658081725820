package experiments

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// The experiments below extend the paper's evaluation with analyses that
// its metrics imply but its tables do not show: a dose-ladder process
// window and an equal-budget convergence ablation of the multi-level
// schedule itself. DESIGN.md lists them under optional/extension features.

// Window sweeps the PVBand ladder (Definition 2 generalised to several
// dose excursions) for the raw target mask vs the Our-exact optimized mask
// on case1. Both ladders are monotone in the excursion; on contest-like
// patterns with adequate iteration budget the optimized mask shows the
// smaller band (on very easy patterns a raw mask can already sit at the
// window optimum, which is why the L2/EPE columns matter too).
func Window(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	opt1, _, err := c.regions(cs.Target)
	if err != nil {
		return nil, err
	}
	c.logf("window: optimizing case1 with Our-exact")
	ours, err := c.runRecipe(sim, "Our-exact", cs.Target, core.ExactM1(), opt1, 0)
	if err != nil {
		return nil, err
	}
	deltas := []float64{0, 0.01, 0.02, 0.03, 0.05}
	rawBands, err := metrics.PVBandLadder(sim, cs.Target, deltas)
	if err != nil {
		return nil, err
	}
	optBands, err := metrics.PVBandLadder(sim, ours.Mask, deltas)
	if err != nil {
		return nil, err
	}
	px2 := c.PixelNM() * c.PixelNM()
	t := report.NewTable("Process window — PVBand vs dose excursion (case1)",
		"dose delta", "raw mask PVB (nm²)", "Our-exact PVB (nm²)", "reduction")
	rawSeries := &report.Series{Name: "raw"}
	optSeries := &report.Series{Name: "our_exact"}
	for i, d := range deltas {
		raw := rawBands[i] * px2
		opt := optBands[i] * px2
		t.Add(report.F(d, 2), report.F(raw, 0), report.F(opt, 0), report.Ratio(raw-opt, raw))
		rawSeries.Append(d, raw)
		optSeries.Append(d, opt)
	}
	t.Note("the paper's PVB metric is the 0.02 rung; both curves are monotone in the excursion")
	if c.OutDir != "" {
		if err := report.SaveSeriesCSV(filepath.Join(c.OutDir, "window_pvb.csv"), rawSeries, optSeries); err != nil {
			return nil, err
		}
		if err := t.SaveCSV(filepath.Join(c.OutDir, "window.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Convergence is the equal-budget schedule ablation: the multi-level exact
// recipe vs the same total iteration count spent purely at low resolution
// and purely at full resolution. Full-res-only buys the lowest L2 at an
// order of magnitude more wall-clock and shots; the high-resolution stage
// of the multi-level schedule buys mask simplicity (fewer shots than
// low-res-only) and, at fine pixel pitches, recovers the Eq. (8)
// approximation error as well.
func Convergence(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	exact := core.ScaleStages(core.ExactM1(), c.IterDiv)
	budget := 0
	for _, st := range exact {
		budget += st.Iters
	}
	type variant struct {
		name   string
		stages []core.Stage
	}
	variants := []variant{
		{"multi-level (exact)", exact},
		{"low-res only (s=4)", []core.Stage{{Scale: 4, Iters: budget}}},
		{"full-res only", []core.Stage{{Scale: 1, Iters: budget}}},
	}
	t := report.NewTable(
		fmt.Sprintf("Schedule ablation — equal budget of %d iterations (case1)", budget),
		"schedule", "L2 (nm²)", "PVB (nm²)", "#shots", "ILT time (s)")
	var series []*report.Series
	for _, v := range variants {
		opts := c.coreOptions(sim)
		o, err := core.New(opts, cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), v.stages)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
		if err != nil {
			return nil, err
		}
		c.logf("convergence: %s — %d iters, %.2fs, L2 %.0f", v.name, res.Iterations, res.ILTSeconds, rep.L2)
		t.Add(v.name, report.F(rep.L2, 0), report.F(rep.PVB, 0),
			report.I(rep.Shots), report.F(res.ILTSeconds, 3))
		s := &report.Series{Name: v.name}
		for i, h := range res.History {
			s.Append(float64(i), h.Loss.Total())
		}
		series = append(series, s)
	}
	t.Note("loss traces are at each schedule's own working resolution (not directly comparable in magnitude; the evaluated L2/PVB columns are)")
	if c.OutDir != "" {
		// Traces can differ in length across variants (early stop); pad to
		// the longest for a single CSV.
		n := 0
		for _, s := range series {
			if len(s.X) > n {
				n = len(s.X)
			}
		}
		for _, s := range series {
			for len(s.X) < n {
				last := s.Y[len(s.Y)-1]
				s.Append(float64(len(s.X)), last)
			}
		}
		if err := report.SaveSeriesCSV(filepath.Join(c.OutDir, "convergence.csv"), series...); err != nil {
			return nil, err
		}
		if err := t.SaveCSV(filepath.Join(c.OutDir, "schedule_ablation.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
