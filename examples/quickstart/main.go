// Quickstart: build an optical model, draw a small target, run the fast
// multi-level ILT recipe, and compare the contest metrics of the raw target
// mask against the optimized mask.
//
//	go run ./examples/quickstart
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
	// 1. Optics: a reduced 512 nm field keeps the kernel build instant.
	//    (optics.Default() is the paper-scale 2048 nm / 24-kernel setup.)
	oc := optics.TestScale()
	model, err := optics.BuildModel(oc)
	if err != nil {
		log.Fatal(err)
	}
	sim := litho.NewSim(model)
	fmt.Printf("SOCS model: %d kernels of support %d (nominal + defocus sets)\n",
		len(model.Nominal.Kernels), model.Nominal.P)

	// 2. Target: two metal bars on a 256-px tile (2 nm/px here).
	target := grid.NewMat(256, 256)
	geom.FillRect(target, geom.Rect{X0: 64, Y0: 84, X1: 192, Y1: 112}, 1)
	geom.FillRect(target, geom.Rect{X0: 64, Y0: 144, X1: 192, Y1: 172}, 1)

	// 3. Optimize with the paper's fast recipe: 35 low-resolution
	//    iterations at s=4, then 5 high-resolution iterations at s=8.
	opts := core.DefaultOptions(sim)
	opt, err := core.New(opts, target)
	if err != nil {
		log.Fatal(err)
	}
	res, err := opt.Run(context.Background(), core.FastM1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast recipe: %d iterations in %.2fs\n", res.Iterations, res.ILTSeconds)

	// 4. Evaluate both masks with the exact simulator at all corners (EPE
	//    points every 40 nm, 15 nm threshold: 20 and 8 px at 2 nm/px).
	before, err := metrics.Evaluate(sim, target, target)
	if err != nil {
		log.Fatal(err)
	}
	after, err := metrics.Evaluate(sim, res.Mask, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw target as mask:  L2 %6.0f  PVB %6.0f  EPE %d\n", before.L2, before.PVB, before.EPE)
	fmt.Printf("optimized mask:      L2 %6.0f  PVB %6.0f  EPE %d  (#shots %d)\n",
		after.L2, after.PVB, after.EPE, after.Shots)
	if after.L2 >= before.L2 {
		log.Fatal("optimization did not improve L2 — something is wrong")
	}
	fmt.Printf("L2 improvement: %.1f%%\n", 100*(before.L2-after.L2)/before.L2)
}
