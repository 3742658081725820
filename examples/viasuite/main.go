// Via-layer walkthrough (Section IV-C): generate via patterns, run the
// staged low-resolution schedule (s = 8 → 4 → 2) plus high-resolution
// fine-tuning with early stopping, and verify that every via prints.
//
//	go run ./examples/viasuite
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/metrics"
)

func main() {
	cfg := experiments.Config{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 1}
	sim, err := cfg.Sim()
	if err != nil {
		log.Fatal(err)
	}
	cases, err := bench.ViaSuite(cfg.N, cfg.FieldNM, 3)
	if err != nil {
		log.Fatal(err)
	}
	stages, patience, err := core.Recipe("via") // patience: exit after 15 non-improving iterations
	if err != nil {
		log.Fatal(err)
	}

	for _, cs := range cases {
		opts := core.DefaultOptions(sim)
		opts.Patience = patience
		o, err := core.New(opts, cs.Target)
		if err != nil {
			log.Fatal(err)
		}
		res, err := o.Run(context.Background(), core.ScaleStages(stages, cfg.IterDiv))
		if err != nil {
			log.Fatal(err)
		}
		wafer, err := sim.Print(res.Mask, sim.Nominal())
		if err != nil {
			log.Fatal(err)
		}
		total, printed := viasPrinted(cs.Target, wafer[0])
		rep, err := metrics.Evaluate(sim, res.Mask, cs.Target)
		if err != nil {
			log.Fatal(err)
		}
		rep = rep.Scale(cfg.PixelNM())
		fmt.Printf("%s: %d/%d vias printed, L2 %.0f nm², PVB %.0f nm², %d iterations (early stop), %.2fs\n",
			cs.Name, printed, total, rep.L2, rep.PVB, res.Iterations, res.ILTSeconds)
		if printed != total {
			log.Fatalf("%s: missing vias — the paper's via acceptance bar is all-print", cs.Name)
		}
	}
	fmt.Println("all via patterns printed completely")
}

// viasPrinted counts target vias whose area is at least half covered by the
// printed wafer image.
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
