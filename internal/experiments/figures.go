package experiments

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/imgio"
	"repro/internal/mask"
	"repro/internal/report"
)

// savePNG writes an artifact when OutDir is set.
func (c Config) savePNG(name string, m *grid.Mat) error {
	if c.OutDir == "" {
		return nil
	}
	return imgio.WritePNG(filepath.Join(c.OutDir, name), m)
}

// Fig1 reproduces the headline comparison: the A2-ILT-style baseline mask
// vs our mask on case1 — ours should have more regular shapes (fewer,
// larger fracturing rectangles relative to its area).
func Fig1(c Config) (*report.Table, error) {
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
	a2, err := c.runAttention(sim, cs.Target, opt1)
	if err != nil {
		return nil, err
	}
	ours, err := c.runRecipe(sim, "Our-exact", cs.Target, core.ExactM1(), opt1, 0)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 1 — optimized mask outputs (case1)",
		"method", "L2 (nm²)", "PVB (nm²)", "#shots", "shots per 1000 nm² of mask")
	for _, m := range []Measured{a2, ours} {
		maskArea := m.Mask.Sum() * c.PixelNM() * c.PixelNM()
		density := 0.0
		if maskArea > 0 {
			density = float64(m.Report.Shots) / maskArea * 1000
		}
		t.Add(m.Method, report.F(m.Report.L2, 0), report.F(m.Report.PVB, 0),
			report.I(m.Report.Shots), report.F(density, 3))
	}
	if err := c.savePNG("fig1_a2ilt_mask.png", a2.Mask); err != nil {
		return nil, err
	}
	if err := c.savePNG("fig1_ours_mask.png", ours.Mask); err != nil {
		return nil, err
	}
	if err := c.savePNG("fig1_target.png", cs.Target); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig4 reproduces the binary-function comparison: 40 low-resolution
// iterations with T_R = 0 vs T_R = 0.5. The paper reports
// (L2, PVB) = (50626, 51465) vs (43452, 46361) and visible SRAFs only for
// T_R = 0.5.
func Fig4(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	iters := maxInt(1, 40/c.IterDiv)
	far := geom.DilateBox(cs.Target, maxInt(2, int(50/c.PixelNM())))

	t := report.NewTable(
		fmt.Sprintf("Fig. 4 — binary function T_R ablation (%d low-res iterations, case1)", iters),
		"T_R", "L2 (nm²)", "PVB (nm²)", "SRAF area (nm²)", "paper L2", "paper PVB")
	for _, tr := range []float64{0, 0.5} {
		opts := c.coreOptions(sim)
		opts.Binary = mask.Sigmoid{Beta: mask.DefaultBeta, TR: tr}
		if tr == 0 {
			opts.OutputTR = 0
		}
		o, err := core.New(opts, cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), []core.Stage{{Scale: 4, Iters: iters}})
		if err != nil {
			return nil, err
		}
		rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
		if err != nil {
			return nil, err
		}
		var sraf float64
		for i := range res.Mask.Data {
			// The output mask is binarized to exact {0, 1}; > 0.5 reads
			// "pixel is bright" without relying on float equality.
			if far.Data[i] < 0.5 && res.Mask.Data[i] > 0.5 {
				sraf++
			}
		}
		sraf *= c.PixelNM() * c.PixelNM()
		paperL2, paperPVB := PaperFig4.TR0L2, PaperFig4.TR0PVB
		if tr != 0 { // tr ∈ {0, 0.5}: the nonzero ablation point
			paperL2, paperPVB = PaperFig4.TR05L2, PaperFig4.TR05PVB
		}
		t.Add(report.F(tr, 1), report.F(rep.L2, 0), report.F(rep.PVB, 0),
			report.F(sraf, 0), report.F(paperL2, 0), report.F(paperPVB, 0))
		if err := c.savePNG(fmt.Sprintf("fig4_tr%02.0f_mask.png", tr*10), res.Mask); err != nil {
			return nil, err
		}
		// The incompletely binarized mask M of the figure itself.
		binarized := opts.Binary.Apply(res.Params)
		if err := c.savePNG(fmt.Sprintf("fig4_tr%02.0f_binarized.png", tr*10), binarized); err != nil {
			return nil, err
		}
	}
	t.Note("expected shape: T_R=0.5 row has lower L2/PVB and nonzero SRAF area")
	return t, nil
}

// Fig5 emits the sigmoid transformation and gradient curves for
// T_R ∈ {0, 0.5} (pure math, no simulation).
func Fig5(c Config) (*report.Table, error) {
	s0 := mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0}
	s5 := mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0.5}
	f0 := &report.Series{Name: "f_TR0"}
	f5 := &report.Series{Name: "f_TR05"}
	g0 := &report.Series{Name: "grad_TR0"}
	g5 := &report.Series{Name: "grad_TR05"}
	for x := -2.0; x <= 3.0+1e-9; x += 0.05 {
		mp := grid.FromSlice(1, 1, []float64{x})
		m0 := s0.Apply(mp)
		m5 := s5.Apply(mp)
		f0.Append(x, m0.Data[0])
		f5.Append(x, m5.Data[0])
		g0.Append(x, s0.Grad(mp, m0).Data[0])
		g5.Append(x, s5.Grad(mp, m5).Data[0])
	}
	if c.OutDir != "" {
		if err := report.SaveSeriesCSV(filepath.Join(c.OutDir, "fig5_sigmoid.csv"), f0, f5, g0, g5); err != nil {
			return nil, err
		}
	}
	t := report.NewTable("Fig. 5 — sigmoid transformation and gradient",
		"quantity", "T_R=0", "T_R=0.5")
	at := func(s mask.Sigmoid, x float64) float64 {
		mp := grid.FromSlice(1, 1, []float64{x})
		return s.Apply(mp).Data[0]
	}
	gr := func(s mask.Sigmoid, x float64) float64 {
		mp := grid.FromSlice(1, 1, []float64{x})
		return s.Grad(mp, s.Apply(mp)).Data[0]
	}
	t.Add("f(0)", report.F(at(s0, 0), 3), report.F(at(s5, 0), 3))
	t.Add("f(1)", report.F(at(s0, 1), 3), report.F(at(s5, 1), 3))
	t.Add("f'(0)", report.F(gr(s0, 0), 3), report.F(gr(s5, 0), 3))
	t.Add("f'(1)", report.F(gr(s0, 1), 3), report.F(gr(s5, 1), 3))
	t.Note("with T_R=0 the opaque pixels (M'=0) sit on the gradient peak β/4, driving them strongly negative after one step; T_R=0.5 balances the two levels")
	return t, nil
}

// Fig6 reproduces the smoothing-pool comparison on a low-resolution run:
// with pooling the mask has (slightly) higher L2 but a simpler pattern.
func Fig6(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(3) // a dense case shows the contour effect best
	if err != nil {
		return nil, err
	}
	iters := maxInt(1, 80/c.IterDiv)
	t := report.NewTable(
		fmt.Sprintf("Fig. 6 — 3×3 smoothing pooling ablation (%d low-res iterations, case3)", iters),
		"variant", "L2 (nm²)", "PVB (nm²)", "#shots")
	for _, window := range []int{3, 0} {
		name := "with pooling"
		if window == 0 {
			name = "without pooling"
		}
		opts := c.coreOptions(sim)
		opts.SmoothWindow = window
		o, err := core.New(opts, cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), []core.Stage{{Scale: 4, Iters: iters}})
		if err != nil {
			return nil, err
		}
		rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
		if err != nil {
			return nil, err
		}
		t.Add(name, report.F(rep.L2, 0), report.F(rep.PVB, 0), report.I(rep.Shots))
		if err := c.savePNG(fmt.Sprintf("fig6_pool%d_mask.png", window), res.Mask); err != nil {
			return nil, err
		}
	}
	t.Note("paper (different case): with pooling L2/PVB = %0.f/%0.f, without = %0.f/%0.f — pooling trades a little L2 for simpler shapes",
		PaperFig6.PoolL2, PaperFig6.PoolPVB, PaperFig6.NoPoolL2, PaperFig6.NoPoolPVB)
	return t, nil
}

// Fig7 reproduces the optimizing-region comparison: Our-exact under
// option 1 (tight) vs option 2 (loose) on one case.
func Fig7(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	opt1, opt2, err := c.regions(cs.Target)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 7 — optimizing region options (case1, Our-exact)",
		"option", "region area (nm²)", "L2 (nm²)", "PVB (nm²)", "#shots")
	for i, region := range []*grid.Mat{opt1, opt2} {
		meas, err := c.runRecipe(sim, fmt.Sprintf("option%d", i+1), cs.Target, core.ExactM1(), region, 0)
		if err != nil {
			return nil, err
		}
		area := region.Sum() * c.PixelNM() * c.PixelNM()
		t.Add(fmt.Sprintf("option %d", i+1), report.F(area, 0),
			report.F(meas.Report.L2, 0), report.F(meas.Report.PVB, 0), report.I(meas.Report.Shots))
		if err := c.savePNG(fmt.Sprintf("fig7_option%d_mask.png", i+1), meas.Mask); err != nil {
			return nil, err
		}
		if err := c.savePNG(fmt.Sprintf("fig7_option%d_region.png", i+1), region); err != nil {
			return nil, err
		}
	}
	t.Note("option 2 gives SRAFs more room; the paper notes the divergence mainly affects SRAF-producing methods like ours")
	return t, nil
}

// Fig8 reproduces the via flow: the staged 100/100/50 + 15 schedule with
// early stopping, plus the four panels (target, binarized mask, final mask,
// wafer image). The key check: every via prints.
func Fig8(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := viaCase(c)
	if err != nil {
		return nil, err
	}
	res, err := c.runVia(sim, cs.Target, c.IterDiv)
	if err != nil {
		return nil, err
	}
	rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
	if err != nil {
		return nil, err
	}
	wafer, err := sim.Print(res.Mask, sim.Nominal())
	if err != nil {
		return nil, err
	}
	total, printed := viasPrinted(cs.Target, wafer[0])

	t := report.NewTable("Fig. 8 — via pattern flow (staged schedule, early stop 15)",
		"metric", "value")
	t.Add("vias in target", report.I(total))
	t.Add("vias printed", report.I(printed))
	t.Add("L2 (nm²)", report.F(rep.L2, 0))
	t.Add("PVB (nm²)", report.F(rep.PVB, 0))
	t.Add("#shots", report.I(rep.Shots))
	t.Add("ILT iterations (early stop)", report.I(res.Iterations))
	t.Add("ILT time (s)", report.F(res.ILTSeconds, 2))

	if err := c.savePNG("fig8_target.png", cs.Target); err != nil {
		return nil, err
	}
	binarized := core.DefaultOptions(sim).Binary.Apply(res.Params)
	if err := c.savePNG("fig8_binarized.png", binarized); err != nil {
		return nil, err
	}
	if err := c.savePNG("fig8_mask.png", res.Mask); err != nil {
		return nil, err
	}
	if err := c.savePNG("fig8_wafer.png", wafer[0]); err != nil {
		return nil, err
	}
	t.Note("the paper's acceptance bar: every via shape appears on the wafer image")
	return t, nil
}

// viaCase picks the Fig. 8 via pattern at this scale: nine vias from the
// via generator's first seed. It is named fig8, because via1 is
// bench.PaperVia's six-via case of that seed.
func viaCase(c Config) (bench.Case, error) {
	cs, err := bench.ViaCase(c.N, c.FieldNM, 1, 9)
	cs.Name = "fig8"
	return cs, err
}

// viasPrinted counts target via components whose area is at least half
// covered by the printed wafer image.
func viasPrinted(target, wafer *grid.Mat) (total, printed int) {
	labels, comps := geom.Label(target)
	covered := make([]int, len(comps)+1)
	for i, l := range labels {
		if l > 0 && wafer.Data[i] >= 0.5 {
			covered[l]++
		}
	}
	for _, comp := range comps {
		total++
		if covered[comp.Label]*2 >= comp.Area {
			printed++
		}
	}
	return total, printed
}
