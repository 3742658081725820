package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/report"
)

// ViaSweep reproduces the full Section IV-C evaluation: the staged
// low-resolution schedule (100 at s=8, 100 at s=4, 50 at s=2) plus 15
// high-resolution iterations with 15-iteration early stopping, over a suite
// of via patterns ("fifteen randomly chosen" in the paper; the count scales
// down with IterDiv to keep reduced harnesses fast). The acceptance bar is
// the paper's: every via prints, even on the worst case.
func ViaSweep(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	count := 15 / c.IterDiv
	if count < 3 {
		count = 3
	}
	cases, err := bench.ViaSuite(c.N, c.FieldNM, count)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Section IV-C — via suite (%d cases, staged schedule, early stop %d)", count, core.ViaPatience),
		"case", "vias", "printed", "L2 (nm²)", "PVB (nm²)", "#shots", "iters", "ILT (s)")
	worst := -1.0
	worstName := ""
	allPrinted := true
	for _, cs := range cases {
		c.logf("viasweep: %s", cs.Name)
		res, err := c.runVia(sim, cs.Target, c.IterDiv)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cs.Name, err)
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
		if printed != total {
			allPrinted = false
		}
		if rep.L2 > worst {
			worst, worstName = rep.L2, cs.Name
		}
		t.Add(cs.Name, report.I(total), report.I(printed), report.F(rep.L2, 0),
			report.F(rep.PVB, 0), report.I(rep.Shots), report.I(res.Iterations),
			report.F(res.ILTSeconds, 2))
	}
	t.Note("worst case by L2: %s (the paper shows its worst case in Fig. 8)", worstName)
	if allPrinted {
		t.Note("all vias printed on every case — the paper's acceptance bar holds")
	} else {
		t.Note("WARNING: at least one via failed to print (raise the iteration budget)")
	}
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "viasweep.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
