// Process-window walkthrough: optimize a target, then sweep the PVBand
// dose ladder and the dose window of the optimized mask vs the raw target
// mask — the generalisation of the paper's Definition 2 used by the
// `window` experiment.
//
//	go run ./examples/processwindow
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/metrics"
	"repro/internal/optics"
)

func main() {
	model, err := optics.BuildModel(optics.TestScale())
	if err != nil {
		log.Fatal(err)
	}
	sim := litho.NewSim(model)

	target := grid.NewMat(256, 256)
	geom.FillRect(target, geom.Rect{X0: 72, Y0: 88, X1: 184, Y1: 116}, 1)
	geom.FillRect(target, geom.Rect{X0: 72, Y0: 140, X1: 184, Y1: 168}, 1)

	opt, err := core.New(core.DefaultOptions(sim), target)
	if err != nil {
		log.Fatal(err)
	}
	res, err := opt.Run(context.Background(), core.ExactM1())
	if err != nil {
		log.Fatal(err)
	}

	deltas := []float64{0, 0.01, 0.02, 0.03, 0.05}
	rawBands, err := metrics.PVBandLadder(sim, target, deltas)
	if err != nil {
		log.Fatal(err)
	}
	optBands, err := metrics.PVBandLadder(sim, res.Mask, deltas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PVBand ladder (px²):")
	fmt.Println("  dose±    raw mask   optimized")
	for i, d := range deltas {
		marker := ""
		//lint:ignore floatcmp d ranges over the literal slice above, so 0.02 compares bit-identically to its own literal
		if d == 0.02 {
			marker = "  ← the paper's PVB condition"
		}
		fmt.Printf("  %.2f   %8.0f   %8.0f%s\n", d, rawBands[i], optBands[i], marker)
	}

	doses := []float64{0.95, 0.98, 1.0, 1.02, 1.05}
	pts, err := metrics.DoseWindow(sim, res.Mask, target, doses, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndose window of the optimized mask (focus + defocus):")
	for _, p := range pts {
		focus := "nominal"
		if p.Defocused {
			focus = "defocus"
		}
		fmt.Printf("  dose %.2f %s: printed %5.0f px², L2 %6.0f, EPE %d\n",
			p.Dose, focus, p.Area, p.L2, p.EPE)
	}
}
