package experiments

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/optics"
	"repro/internal/report"
)

// Bossung measures CD-through-dose for the widest feature of case1, raw
// mask vs Our-exact optimized mask, at nominal focus and defocus — the
// fab-style view of what the optimization bought: a flatter CD response
// (smaller dose sensitivity) at the measurement site.
func Bossung(c Config) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	// Measurement site: the widest component's center, cut across its
	// narrow axis.
	comps := geom.Components(cs.Target)
	if len(comps) == 0 {
		return nil, fmt.Errorf("experiments: case1 has no features")
	}
	widest := comps[0]
	for _, comp := range comps[1:] {
		if comp.Area > widest.Area {
			widest = comp
		}
	}
	cut := metrics.CutLine{
		Horizontal: widest.BBox.W() < widest.BBox.H(), // cut across the narrow axis
		X:          (widest.BBox.X0 + widest.BBox.X1) / 2,
		Y:          (widest.BBox.Y0 + widest.BBox.Y1) / 2,
	}
	targetCD := widest.BBox.W()
	if !cut.Horizontal {
		targetCD = widest.BBox.H()
	}

	ours, err := c.runRecipe(sim, "Our-exact", cs.Target, core.ExactM1(), nil, 0)
	if err != nil {
		return nil, err
	}
	doses := []float64{0.94, 0.97, 1.0, 1.03, 1.06}
	rawPts, err := metrics.CDThroughDose(sim, cs.Target, cut, doses)
	if err != nil {
		return nil, err
	}
	optPts, err := metrics.CDThroughDose(sim, ours.Mask, cut, doses)
	if err != nil {
		return nil, err
	}

	px := c.PixelNM()
	t := report.NewTable(
		fmt.Sprintf("Bossung — CD through dose at case1's widest feature (target CD %.0f nm)", float64(targetCD)*px),
		"dose", "focus", "raw CD (nm)", "Our-exact CD (nm)")
	series := []*report.Series{
		{Name: "raw_nominal"}, {Name: "opt_nominal"},
		{Name: "raw_defocus"}, {Name: "opt_defocus"},
	}
	for i := range rawPts {
		focus := "nominal"
		si := 0
		if rawPts[i].Defocused {
			focus = "defocus"
			si = 2
		}
		raw := float64(rawPts[i].CDPx) * px
		opt := float64(optPts[i].CDPx) * px
		t.Add(report.F(rawPts[i].Dose, 2), focus, report.F(raw, 0), report.F(opt, 0))
		series[si].Append(rawPts[i].Dose, raw)
		series[si+1].Append(rawPts[i].Dose, opt)
	}
	t.Note("a flatter optimized column = lower dose sensitivity at the site; both columns grow monotonically with dose")
	if c.OutDir != "" {
		if err := report.SaveSeriesCSV(filepath.Join(c.OutDir, "bossung.csv"),
			series[0], series[1], series[2], series[3]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Kernels is the SOCS truncation ablation: forward-simulation error vs the
// retained kernel count, against the largest set as reference. It verifies
// the eigenvalue decay that justifies N_k = 24 in the paper.
func Kernels(c Config) (*report.Table, error) {
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	var counts []int
	for _, nk := range []int{2, 4, 8, 16} {
		if nk < c.Kernels {
			counts = append(counts, nk)
		}
	}
	counts = append(counts, c.Kernels)
	// Reference: the largest count.
	ref, err := forwardWithKernels(c, cs.Target, counts[len(counts)-1])
	if err != nil {
		return nil, err
	}
	refEnergy := ref.SumSq()

	t := report.NewTable("SOCS truncation — aerial-image error vs kernel count (case1)",
		"N_k", "TCC energy captured", "relative aerial RMS error vs N_k="+report.I(counts[len(counts)-1]))
	for _, nk := range counts {
		oc := c.Optics()
		oc.NumKernels = nk
		captured, trace, err := optics.EnergyCapture(oc, 0)
		if err != nil {
			return nil, err
		}
		img, err := forwardWithKernels(c, cs.Target, nk)
		if err != nil {
			return nil, err
		}
		var num float64
		for i := range img.Data {
			d := img.Data[i] - ref.Data[i]
			num += d * d
		}
		rel := 0.0
		if refEnergy > 0 {
			rel = num / refEnergy
		}
		t.Add(report.I(nk), report.F(captured/trace, 4), fmt.Sprintf("%.2e", rel))
	}
	t.Note("error falls with the TCC eigenvalue tail — the basis for truncating at N_k kernels")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "kernels.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// forwardWithKernels builds a simulator with nk kernels (newSim) and
// returns the exact aerial image of the target mask.
func forwardWithKernels(c Config, target *grid.Mat, nk int) (*grid.Mat, error) {
	oc := c.Optics()
	oc.NumKernels = nk
	sim, err := c.newSim(oc)
	if err != nil {
		return nil, err
	}
	f, err := sim.Forward(target, sim.Model.Nominal, 1, false)
	if err != nil {
		return nil, err
	}
	return f.Intensity, nil
}
