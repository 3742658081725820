package experiments

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/report"
)

// Table1 reproduces the ablation of Section IV-A on case1: 100 iterations
// (divided by IterDiv) of low-resolution ILT (s = 4), high-resolution ILT
// (s = 4) and ILT without downsampling, all at learning rate 1. The paper's
// qualitative claims: low-res ≈ 18× faster than high-res; high-res ≈
// no-downsampling runtime with far fewer shots; no-downsampling has the
// lowest L2 but unacceptable #shots.
func Table1(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	iters := maxInt(1, 100/c.IterDiv)

	type variant struct {
		name   string
		stages []core.Stage
		smooth int
	}
	variants := []variant{
		{"low-res ILT (s=4)", []core.Stage{{Scale: 4, Iters: iters}}, 3},
		{"high-res ILT (s=4)", []core.Stage{{Scale: 4, Iters: iters, HighRes: true}}, 0},
		{"ILT w/o downsampling", []core.Stage{{Scale: 1, Iters: iters}}, 0},
	}

	t := report.NewTable(
		fmt.Sprintf("Table I — downsampling ablation on case1 (%d iterations, lr=1, N=%d)", iters, c.N),
		"method", "L2 (nm²)", "PVB (nm²)", "#shots", "ILT time (s)", "ms/iter")
	var times []float64
	for _, v := range variants {
		c.logf("table1: %s", v.name)
		opts := c.coreOptions(sim)
		opts.SmoothWindow = v.smooth
		o, err := core.New(opts, cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), v.stages)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", v.name, err)
		}
		rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
		if err != nil {
			return nil, err
		}
		times = append(times, res.ILTSeconds)
		t.Add(v.name, report.F(rep.L2, 0), report.F(rep.PVB, 0), report.I(rep.Shots),
			report.F(res.ILTSeconds, 3), report.F(res.ILTSeconds/float64(res.Iterations)*1000, 2))
	}
	if len(times) == 3 && times[0] > 0 {
		t.Note("high-res / low-res iteration-time ratio: %.1f× (paper: ≈18×)", times[1]/times[0])
		t.Note("no-downsampling / high-res time ratio: %.2f× (paper: ≈1×)", times[2]/times[1])
	}
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "table1.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// suiteTable runs a method set over a case suite and renders a paper-style
// table: one row per (case, method), Average rows, paper reference rows,
// and ratio-vs-Our-exact rows.
func (c Config) suiteTable(title string, cases []bench.Case, methods []string,
	run func(cs bench.Case, method string) (Measured, error),
	paperRows []PaperAvg, csvName string) (*report.Table, error) {

	t := report.NewTable(title,
		"case", "method", "L2 (nm²)", "PVB (nm²)", "EPE", "#shots", "TAT (s)")
	sums := make(map[string]*PaperAvg, len(methods))
	for _, m := range methods {
		sums[m] = &PaperAvg{Method: m}
	}
	for _, cs := range cases {
		for _, m := range methods {
			c.logf("%s: %s %s", csvName, cs.Name, m)
			meas, err := run(cs, m)
			if err != nil {
				return nil, fmt.Errorf("%s / %s: %w", cs.Name, m, err)
			}
			r := meas.Report
			t.Add(cs.Name, m, report.F(r.L2, 0), report.F(r.PVB, 0),
				report.I(r.EPE), report.I(r.Shots), report.F(r.TAT, 2))
			s := sums[m]
			s.L2 += r.L2
			s.PVB += r.PVB
			s.EPE += float64(r.EPE)
			s.Shots += float64(r.Shots)
			s.TAT += r.TAT
		}
	}
	nc := float64(len(cases))
	var ourExact *PaperAvg
	for _, m := range methods {
		s := sums[m]
		s.L2 /= nc
		s.PVB /= nc
		s.EPE /= nc
		s.Shots /= nc
		s.TAT /= nc
		t.Add("Average", m, report.F(s.L2, 1), report.F(s.PVB, 1),
			report.F(s.EPE, 1), report.F(s.Shots, 1), report.F(s.TAT, 2))
		if m == "Our-exact" {
			ourExact = s
		}
	}
	for _, pr := range paperRows {
		epe := "-"
		if pr.EPE >= 0 {
			epe = report.F(pr.EPE, 1)
		}
		t.Add("Paper avg", pr.Method, report.F(pr.L2, 1), report.F(pr.PVB, 1),
			epe, report.F(pr.Shots, 1), report.F(pr.TAT, 2))
	}
	if ourExact != nil {
		for _, m := range methods {
			s := sums[m]
			t.Add("Ratio", m, report.Ratio(s.L2, ourExact.L2), report.Ratio(s.PVB, ourExact.PVB),
				report.Ratio(s.EPE, ourExact.EPE), report.Ratio(s.Shots, ourExact.Shots),
				report.Ratio(s.TAT, ourExact.TAT))
		}
	}
	t.Note("measured on synthetic %d-px cases over a %.0f nm field; paper rows are the published averages on the real contest layouts (absolute numbers are not comparable; relative ordering is)", c.N, c.FieldNM)
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, csvName+".csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table2 reproduces Table II: the ten M1 cases under region option 1, with
// the A2-ILT-style baseline when WithBaselines is set.
func Table2(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cases, err := bench.M1Suite(c.N, c.FieldNM)
	if err != nil {
		return nil, err
	}
	methods := []string{"Our-fast", "Our-exact"}
	if c.WithBaselines {
		methods = append([]string{"A2-ILT-style (ours)"}, methods...)
	}
	run := func(cs bench.Case, method string) (Measured, error) {
		opt1, _, err := c.regions(cs.Target)
		if err != nil {
			return Measured{}, err
		}
		switch method {
		case "Our-fast":
			return c.runRecipe(sim, method, cs.Target, core.FastM1(), opt1, 0)
		case "Our-exact":
			return c.runRecipe(sim, method, cs.Target, core.ExactM1(), opt1, 0)
		default:
			return c.runAttention(sim, cs.Target, opt1)
		}
	}
	return c.suiteTable(
		fmt.Sprintf("Table II — ICCAD 2013 M1 cases, region option 1 (N=%d)", c.N),
		cases, methods, run, PaperTable2, "table2")
}

// Table3 reproduces Table III: the same cases under region option 2, with
// the GLS-ILT-style level-set baseline when WithBaselines is set.
func Table3(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cases, err := bench.M1Suite(c.N, c.FieldNM)
	if err != nil {
		return nil, err
	}
	methods := []string{"Our-fast", "Our-exact"}
	if c.WithBaselines {
		methods = append([]string{"GLS-ILT-style (ours)"}, methods...)
	}
	run := func(cs bench.Case, method string) (Measured, error) {
		_, opt2, err := c.regions(cs.Target)
		if err != nil {
			return Measured{}, err
		}
		switch method {
		case "Our-fast":
			return c.runRecipe(sim, method, cs.Target, core.FastM1(), opt2, 0)
		case "Our-exact":
			return c.runRecipe(sim, method, cs.Target, core.ExactM1(), opt2, 0)
		default:
			return c.runLevelSet(sim, cs.Target, opt2)
		}
	}
	return c.suiteTable(
		fmt.Sprintf("Table III — ICCAD 2013 M1 cases, region option 2 (N=%d)", c.N),
		cases, methods, run, PaperTable3, "table3")
}

// Table4 reproduces Table IV: the denser extended cases 11–20 under region
// option 1, with conventional pixel ILT (the non-learned core of
// Neural-ILT's refinement loop) when WithBaselines is set.
func Table4(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cases, err := bench.ExtendedSuite(c.N, c.FieldNM)
	if err != nil {
		return nil, err
	}
	methods := []string{"Our-fast", "Our-exact"}
	if c.WithBaselines {
		methods = append([]string{"Pixel-ILT"}, methods...)
	}
	run := func(cs bench.Case, method string) (Measured, error) {
		opt1, _, err := c.regions(cs.Target)
		if err != nil {
			return Measured{}, err
		}
		switch method {
		case "Our-fast":
			return c.runRecipe(sim, method, cs.Target, core.FastM1(), opt1, 0)
		case "Our-exact":
			return c.runRecipe(sim, method, cs.Target, core.ExactM1(), opt1, 0)
		default:
			return c.runPixel(sim, cs.Target, opt1, maxInt(1, 100/c.IterDiv))
		}
	}
	return c.suiteTable(
		fmt.Sprintf("Table IV — extended cases 11–20, region option 1 (N=%d)", c.N),
		cases, methods, run, PaperTable4, "table4")
}
