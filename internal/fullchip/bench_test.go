package fullchip

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
)

// BenchmarkFullchipWorkers tracks the tile-pool speedup curve: one tiled
// optimization of a 3×3-ish tile grid per iteration, parameterized by the
// worker count. allocs/op includes the per-tile optimizer state by design
// (tiles own their state); the interesting column is ns/op vs workers.
func BenchmarkFullchipWorkers(b *testing.B) {
	sim := testSim(b)
	tgt := grid.NewMat(320, 320)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			geom.FillRect(tgt, geom.Rect{
				X0: 40 + 96*x, Y0: 44 + 96*y, X1: 88 + 96*x, Y1: 64 + 96*y,
			}, 1)
		}
	}
	halo := HaloFor(sim, 4)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Optimize(Options{
					Sim: sim, TileSize: 128, Halo: halo,
					Stages:    []core.Stage{{Scale: 4, Iters: 4}},
					SkipEmpty: true, Workers: w,
				}, tgt)
				if err != nil {
					b.Fatal(err)
				}
				if res.TilesRun == 0 {
					b.Fatal("no tiles ran")
				}
			}
		})
	}
}
