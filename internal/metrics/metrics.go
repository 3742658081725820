// Package metrics implements the four evaluation metrics of the paper
// (Section II-B): squared L2 loss, PVBand, EPE violation count, and mask
// fracturing shot count, plus the combined per-case evaluation used by
// every table.
//
// All pixel metrics are reported in px² (or counts). At the paper's scale
// (1 nm/px) px² equals nm²; reduced-resolution harnesses convert with
// PixelArea.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
)

// Paper-scale measurement constants (ICCAD 2013 contest conventions).
const (
	// EPEThresholdNM is thr of Eq. (4).
	EPEThresholdNM = 15
	// EPESpacingNM is the distance between EPE measurement points along
	// target contours.
	EPESpacingNM = 40
)

// EPEPixels converts the contest EPE geometry (EPESpacingNM between
// measurement points, the EPEThresholdNM of Eq. 4) to whole pixels at
// pixelNM nm per pixel, each at least 1.
func EPEPixels(pixelNM float64) (spacingPx, thrPx int) {
	spacingPx = max(1, int(math.Round(EPESpacingNM/pixelNM)))
	thrPx = max(1, int(math.Round(EPEThresholdNM/pixelNM)))
	return spacingPx, thrPx
}

// L2 returns the squared L2 loss ‖a − b‖² (Definition 1). For binary
// images this is the XOR area in px².
func L2(a, b *grid.Mat) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("metrics: L2 shape mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	var s float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return s
}

// PVBand returns the process-variation band (Definition 2): the XOR area of
// the binary prints at the inner and outer corners, in px².
func PVBand(zin, zout *grid.Mat) float64 {
	if zin.W != zout.W || zin.H != zout.H {
		panic(fmt.Sprintf("metrics: PVBand shape mismatch %dx%d vs %dx%d", zin.W, zin.H, zout.W, zout.H))
	}
	var s float64
	for i, v := range zin.Data {
		a := v >= 0.5
		b := zout.Data[i] >= 0.5
		if a != b {
			s++
		}
	}
	return s
}

// EPE counts edge-placement-error violations (Definition 3, Eq. 4):
// measurement points are placed every spacingPx along the horizontal and
// vertical contours of the target; a point violates if the printed contour
// deviates from the target contour by at least thrPx along the edge normal.
// In the discrete raster this means: the pixel thrPx inside the feature is
// unprinted (edge pulled in too far) or the pixel thrPx outside is printed
// (edge pushed out too far).
func EPE(target, printed *grid.Mat, spacingPx, thrPx int) int {
	if target.W != printed.W || target.H != printed.H {
		panic(fmt.Sprintf("metrics: EPE shape mismatch %dx%d vs %dx%d", target.W, target.H, printed.W, printed.H))
	}
	pts := geom.SampleEdges(geom.EdgeSegments(target), spacingPx)
	at := func(m *grid.Mat, x, y int) bool {
		if x < 0 || x >= m.W || y < 0 || y >= m.H {
			return false
		}
		return m.Data[y*m.W+x] >= 0.5
	}
	violations := 0
	for _, p := range pts {
		ix, iy := p.X+p.NX*(thrPx-1), p.Y+p.NY*(thrPx-1) // deep inside
		ox, oy := p.X-p.NX*thrPx, p.Y-p.NY*thrPx         // beyond the edge
		inner := at(target, ix, iy) && !at(printed, ix, iy)
		outer := at(printed, ox, oy) && !at(target, ox, oy)
		if inner || outer {
			violations++
		}
	}
	return violations
}

// Shots returns the mask fracturing shot count (Definition 4) using the
// deterministic run-merge decomposition.
func Shots(m *grid.Mat) int { return geom.ShotCount(m) }

// Report is one row of the paper's tables.
type Report struct {
	L2    float64 // squared L2 loss, px²
	PVB   float64 // PVBand, px²
	EPE   int     // EPE violations
	Shots int     // fracturing shot count
	TAT   float64 // turnaround time, seconds (filled by the caller)
}

// Scale converts the area metrics to nm² for a pixel of the given linear
// size in nm (EPE/Shots/TAT are unit-free).
func (r Report) Scale(pixelNM float64) Report {
	a := pixelNM * pixelNM
	r.L2 *= a
	r.PVB *= a
	return r
}

// Evaluate runs the full contest evaluation of a finished binary mask
// against a target: exact lithography at the three corners (one mask
// spectrum; the nominal and outer corners share one SOCS pass), then all
// four metrics. The EPE geometry is the contest's (EPEPixels) at maskOut's
// pixel pitch: the optics field sim simulates over maskOut's width. The
// scoring after the simulation is timed as the metrics.evaluate phase on
// sim.Recorder, beside the simulation's own litho phases.
func Evaluate(sim *litho.Sim, maskOut, target *grid.Mat) (Report, error) {
	var r Report
	zs, err := sim.Print(maskOut, sim.Corners()...)
	if err != nil {
		return r, fmt.Errorf("metrics: %w", err)
	}
	sp := sim.Recorder.StartSpan("metrics.evaluate")
	defer sp.End()
	zNorm, zIn, zOut := zs[0], zs[1], zs[2]
	spacingPx, thrPx := EPEPixels(sim.Model.Config.FieldNM / float64(maskOut.W))
	r.L2 = L2(zNorm, target)
	r.PVB = PVBand(zIn, zOut)
	r.EPE = EPE(target, zNorm, spacingPx, thrPx)
	r.Shots = Shots(maskOut)
	return r, nil
}
