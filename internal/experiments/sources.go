package experiments

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/optics"
	"repro/internal/report"
)

// Sources is an extension ablation over the illumination geometry: the same
// Our-exact recipe is run on case1 under annular (the paper's setting),
// circular, dipole and quasar sources. Kernel sets are rebuilt per shape —
// this exercises the whole optics substrate, not just the optimizer.
func Sources(c Config) (*report.Table, error) {
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Illumination ablation — Our-exact on case1 per source shape",
		"source", "points", "kernels P", "L2 (nm²)", "PVB (nm²)", "EPE", "#shots")
	for _, shape := range []optics.SourceShape{optics.Annular, optics.Circular, optics.Dipole, optics.Quasar} {
		oc := c.Optics()
		oc.Shape = shape
		sim, err := c.newSim(oc)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", shape, err)
		}
		c.logf("sources: %v", shape)

		o, err := core.New(c.coreOptions(sim), cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), core.ScaleStages(core.ExactM1(), c.IterDiv))
		if err != nil {
			return nil, fmt.Errorf("%v: %w", shape, err)
		}
		rep, err := c.evaluateMask(sim, res.Mask, cs.Target)
		if err != nil {
			return nil, err
		}
		t.Add(shape.String(), report.I(len(optics.DiscretizeSource(oc))), report.I(sim.Model.Nominal.P),
			report.F(rep.L2, 0), report.F(rep.PVB, 0), report.I(rep.EPE), report.I(rep.Shots))
	}
	t.Note("the paper uses the annular column; the others probe how the optics substrate responds to source geometry (dipole favours one orientation, so mixed-orientation M1 suffers)")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "sources.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
