// Full-chip walkthrough: optimize a layout larger than one simulation tile
// by halo-overlapped tiling (internal/fullchip), then verify the stitched
// mask prints each feature.
//
//	go run ./examples/fullchip
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fullchip"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/optics"
)

func main() {
	// Tiles are 128 px; with the 512 nm-field model that makes 4 nm/px
	// (the pixel-pitch invariant documented on fullchip.Options).
	model, err := optics.BuildModel(optics.TestScale())
	if err != nil {
		log.Fatal(err)
	}
	sim := litho.NewSim(model)

	// A 600×400 px "chip" region — larger than any single tile, not a
	// power of two, with features scattered across tile boundaries.
	target := grid.NewMat(600, 400)
	for i := 0; i < 6; i++ {
		x := 40 + i*90
		geom.FillRect(target, geom.Rect{X0: x, Y0: 60 + (i%3)*100, X1: x + 60, Y1: 80 + (i%3)*100}, 1)
		geom.FillRect(target, geom.Rect{X0: x, Y0: 260, X1: x + 20, Y1: 340}, 1)
	}

	halo := fullchip.HaloFor(sim, 4)
	res, err := fullchip.Optimize(fullchip.Options{
		Sim:       sim,
		TileSize:  128,
		Halo:      halo,
		Stages:    []core.Stage{{Scale: 4, Iters: 40}, {Scale: 8, Iters: 4, HighRes: true}},
		SkipEmpty: true,
	}, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiled ILT: %d of %d tiles optimized (halo %d px) in %.1fs\n",
		res.TilesRun, res.TilesTotal, halo, res.ILTSeconds)

	// Print each tile region of the stitched mask and count features that
	// resolved (per-tile simulation keeps the pitch invariant).
	printed, total := 0, 0
	comps := geom.Components(target)
	for _, comp := range comps {
		total++
		// Simulate a 128-px window centred on the feature.
		cx := (comp.BBox.X0 + comp.BBox.X1) / 2
		cy := (comp.BBox.Y0 + comp.BBox.Y1) / 2
		win := window(res.Mask, cx-64, cy-64, 128)
		zs, err := sim.Print(win, sim.Nominal())
		if err != nil {
			log.Fatal(err)
		}
		z := zs[0]
		tgtWin := window(target, cx-64, cy-64, 128)
		overlap := 0.0
		for i := range z.Data {
			if z.Data[i] >= 0.5 && tgtWin.Data[i] >= 0.5 {
				overlap++
			}
		}
		ratio := overlap / tgtWin.Sum()
		if ratio >= 0.5 {
			printed++
		} else {
			fmt.Printf("  low coverage %.2f at feature bbox %+v\n", ratio, comp.BBox)
		}
	}
	fmt.Printf("features printed: %d of %d\n", printed, total)
	if printed != total {
		log.Fatal("stitched mask failed to print some features")
	}
}

// window extracts a t×t view with zero padding outside the image.
func window(m *grid.Mat, ox, oy, t int) *grid.Mat {
	out := grid.NewMat(t, t)
	for y := 0; y < t; y++ {
		sy := oy + y
		if sy < 0 || sy >= m.H {
			continue
		}
		for x := 0; x < t; x++ {
			sx := ox + x
			if sx < 0 || sx >= m.W {
				continue
			}
			out.Set(x, y, m.At(sx, sy))
		}
	}
	return out
}
