// M1 suite walkthrough: generate the first three ICCAD-2013-like M1 cases,
// run both paper recipes (fast and exact) under region option 1, and print
// a Table II-style comparison.
//
//	go run ./examples/m1suite
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/post"
	"repro/internal/report"
)

func main() {
	// A reduced grid keeps this example around a minute of CPU; raise N
	// (and drop IterDiv) to approach paper scale.
	cfg := experiments.Config{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 2}
	sim, err := cfg.Sim()
	if err != nil {
		log.Fatal(err)
	}
	cases, err := bench.M1Suite(cfg.N, cfg.FieldNM)
	if err != nil {
		log.Fatal(err)
	}
	cases = cases[:3]

	t := report.NewTable("M1 cases, fast vs exact recipe (region option 1)",
		"case", "recipe", "L2 (nm²)", "PVB (nm²)", "EPE", "#shots", "ILT (s)")
	margin1, _ := cfg.RegionMargins()
	for _, cs := range cases {
		region, err := mask.Region(cs.Target, mask.Option1, margin1)
		if err != nil {
			log.Fatal(err)
		}
		for _, recipe := range []struct {
			name   string
			stages []core.Stage
		}{
			{"fast", core.FastM1()},
			{"exact", core.ExactM1()},
		} {
			opts := core.DefaultOptions(sim)
			opts.Region = region
			o, err := core.New(opts, cs.Target)
			if err != nil {
				log.Fatal(err)
			}
			res, err := o.Run(context.Background(), core.ScaleStages(recipe.stages, cfg.IterDiv))
			if err != nil {
				log.Fatal(err)
			}
			cleaned := post.Clean(res.Mask, cs.Target, post.DefaultOptions(cfg.PixelNM()))
			rep, err := metrics.Evaluate(sim, cleaned.Mask, cs.Target)
			if err != nil {
				log.Fatal(err)
			}
			rep = rep.Scale(cfg.PixelNM())
			t.Add(cs.Name, recipe.name, report.F(rep.L2, 0), report.F(rep.PVB, 0),
				report.I(rep.EPE), report.I(rep.Shots), report.F(res.ILTSeconds, 2))
		}
	}
	t.Note("exact should match or beat fast on L2/PVB at roughly double the runtime")
	fmt.Fprint(os.Stdout, t.String())
}
