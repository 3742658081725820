// Package bench generates the synthetic benchmark suites that stand in for
// the ICCAD 2013 contest layouts (M1 cases 1–10), the ten denser extended
// cases released with Neural-ILT (cases 11–20), and the via-layer patterns
// of Section IV-C. The contest files are not redistributable, so each case
// is produced by a deterministic generator whose target area matches the
// paper's per-case "Area" column (scaled by (N/2048)² on reduced grids) and
// whose feature widths/spacings follow 32 nm-node M1 conventions.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layout"
)

// PaperFieldNM is the paper's physical tile size (2048 nm at 1 nm/px).
// Suites generated for smaller fields scale the per-case area targets by
// (field/2048)², i.e. they behave like crops of the paper tiles.
const PaperFieldNM = 2048.0

// PaperM1Areas are the "Area (nm²)" values of Table II, cases 1–10.
var PaperM1Areas = []float64{
	215344, 169280, 213504, 82560, 281958,
	286234, 229149, 128544, 317581, 102400,
}

// PaperExtendedAreas are the "Area (nm²)" values of Table IV, cases 11–20.
var PaperExtendedAreas = []float64{
	494560, 448496, 492720, 361776, 561174,
	565450, 445365, 407760, 596797, 381616,
}

// Case is one benchmark target.
type Case struct {
	Name    string
	Index   int // 1-based paper case number
	N       int
	PixelNM float64
	Target  *grid.Mat
	Layout  *layout.Layout
	// PaperAreaNM2 is the paper's reported area; AreaNM2 is what the
	// generator actually placed (within tolerance of the former).
	PaperAreaNM2 float64
	AreaNM2      float64
}

// genParams holds the feature-scale knobs of the generator, in nm.
type genParams struct {
	minW, maxW     float64 // bar widths
	minL, maxL     float64 // bar lengths
	spacing        float64 // minimum feature-to-feature spacing
	margin         float64 // keep-out border around the tile
	lShapeFraction float64
}

// PaperCase generates the single case with the given paper index (1–10 =
// Table II M1 cases, 11–20 = Table IV extended cases) without building the
// whole suite.
func PaperCase(n int, fieldNM float64, index int) (Case, error) {
	switch {
	case index >= 1 && index <= 10:
		return M1Case(n, fieldNM, index, PaperM1Areas[index-1], m1Params())
	case index >= 11 && index <= 20:
		return M1Case(n, fieldNM, index, PaperExtendedAreas[index-11], extendedParams())
	default:
		return Case{}, fmt.Errorf("bench: no paper case %d", index)
	}
}

func m1Params() genParams {
	return genParams{
		minW: 45, maxW: 90,
		minL: 140, maxL: 520,
		spacing: 70, margin: 360,
		lShapeFraction: 0.3,
	}
}

func extendedParams() genParams {
	p := m1Params()
	p.spacing = 60
	p.margin = 280
	p.maxL = 640
	return p
}

// M1Suite generates the ten ICCAD-2013-like M1 cases on an N×N grid over
// the given physical field.
func M1Suite(n int, fieldNM float64) ([]Case, error) {
	return suite(n, fieldNM, "case", 1, PaperM1Areas, m1Params())
}

// ExtendedSuite generates the ten denser cases 11–20 of Table IV.
func ExtendedSuite(n int, fieldNM float64) ([]Case, error) {
	return suite(n, fieldNM, "case", 11, PaperExtendedAreas, extendedParams())
}

func suite(n int, fieldNM float64, prefix string, firstIdx int, areas []float64, p genParams) ([]Case, error) {
	cases := make([]Case, 0, len(areas))
	for i, area := range areas {
		idx := firstIdx + i
		c, err := M1Case(n, fieldNM, idx, area, p)
		if err != nil {
			return nil, fmt.Errorf("bench: %s%d: %w", prefix, idx, err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// M1Case generates one M1-like case with the given paper area target; the
// target is scaled by (fieldNM/2048)² so smaller fields act as crops.
func M1Case(n int, fieldNM float64, index int, paperAreaNM2 float64, p genParams) (Case, error) {
	if n < 64 || n&(n-1) != 0 {
		return Case{}, fmt.Errorf("grid size %d must be a power of two ≥ 64", n)
	}
	if fieldNM <= 0 {
		return Case{}, fmt.Errorf("field %g must be positive", fieldNM)
	}
	crop := fieldNM / PaperFieldNM
	paperAreaNM2 *= crop * crop
	// Crops shrink the keep-out border and the longest bars proportionally;
	// minimum feature sizes stay physical.
	p.margin *= crop
	if scaled := p.maxL * crop; scaled > p.minL*1.4 {
		p.maxL = scaled
	} else {
		p.maxL = p.minL * 1.4
	}
	pixel := fieldNM / float64(n)
	toPx := func(nm float64) int {
		v := int(nm/pixel + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	targetPx := paperAreaNM2 / (pixel * pixel)

	rng := rand.New(rand.NewSource(int64(7919*index + 13)))
	target := grid.NewMat(n, n)
	blocked := grid.NewMat(n, n) // target dilated by spacing, incrementally
	lay := layout.New(n, pixel)

	spacingPx := toPx(p.spacing)
	marginPx := toPx(p.margin)
	if 2*marginPx >= n-4 {
		marginPx = n/8 + 1
	}
	minWPx, maxWPx := toPx(p.minW), toPx(p.maxW)
	minLPx, maxLPx := toPx(p.minL), toPx(p.maxL)
	if maxWPx < minWPx+1 {
		maxWPx = minWPx + 1
	}
	if maxLPx < minLPx+1 {
		maxLPx = minLPx + 1
	}

	placed := 0.0
	minShape := float64(minWPx * minLPx)
	const maxAttempts = 20000
	for attempt := 0; attempt < maxAttempts && targetPx-placed > 0.6*minShape; attempt++ {
		rects := proposeShape(rng, p, n, marginPx, minWPx, maxWPx, minLPx, maxLPx)
		if rects == nil {
			continue
		}
		var shapeArea float64
		for _, r := range rects {
			shapeArea += float64(r.Area())
		}
		// Reject draws that would overshoot the paper area badly; a smaller
		// draw will come along.
		if placed+shapeArea > targetPx+0.4*minShape {
			continue
		}
		if !free(blocked, rects) {
			continue
		}
		for _, r := range rects {
			geom.FillRect(target, r, 1)
			geom.FillRect(blocked, geom.Rect{
				X0: r.X0 - spacingPx, Y0: r.Y0 - spacingPx,
				X1: r.X1 + spacingPx, Y1: r.Y1 + spacingPx,
			}, 1)
			lay.AddRect(r)
		}
		placed += shapeArea
	}
	placed = target.Sum()
	if placed < 0.5*targetPx {
		return Case{}, fmt.Errorf("could only place %.0f of %.0f px² (grid too small for the area target)", placed, targetPx)
	}
	return Case{
		Name:         fmt.Sprintf("case%d", index),
		Index:        index,
		N:            n,
		PixelNM:      pixel,
		Target:       target,
		Layout:       lay,
		PaperAreaNM2: paperAreaNM2,
		AreaNM2:      placed * pixel * pixel,
	}, nil
}

// proposeShape draws a random bar or L-shape as a list of rectangles inside
// the usable region, or nil if the draw degenerates.
func proposeShape(rng *rand.Rand, p genParams, n, margin, minW, maxW, minL, maxL int) []geom.Rect {
	w := minW + rng.Intn(maxW-minW)
	l := minL + rng.Intn(maxL-minL)
	lo, hi := margin, n-margin
	if hi-lo < l+2 {
		l = (hi - lo) / 2
		if l <= w {
			return nil
		}
	}
	horizontal := rng.Intn(2) == 0
	x0 := lo + rng.Intn(hi-lo-l)
	y0 := lo + rng.Intn(hi-lo-w)
	var main geom.Rect
	if horizontal {
		main = geom.Rect{X0: x0, Y0: y0, X1: x0 + l, Y1: y0 + w}
	} else {
		main = geom.Rect{X0: y0, Y0: x0, X1: y0 + w, Y1: x0 + l}
	}
	rects := []geom.Rect{main}
	if rng.Float64() < p.lShapeFraction {
		// Attach a perpendicular leg at one end, forming an L.
		legL := minL/2 + rng.Intn(maxL/3+1)
		var leg geom.Rect
		if horizontal {
			lx := main.X0
			if rng.Intn(2) == 0 {
				lx = main.X1 - w
			}
			if rng.Intn(2) == 0 {
				leg = geom.Rect{X0: lx, Y0: main.Y1, X1: lx + w, Y1: main.Y1 + legL}
			} else {
				leg = geom.Rect{X0: lx, Y0: main.Y0 - legL, X1: lx + w, Y1: main.Y0}
			}
		} else {
			ly := main.Y0
			if rng.Intn(2) == 0 {
				ly = main.Y1 - w
			}
			if rng.Intn(2) == 0 {
				leg = geom.Rect{X0: main.X1, Y0: ly, X1: main.X1 + legL, Y1: ly + w}
			} else {
				leg = geom.Rect{X0: main.X0 - legL, Y0: ly, X1: main.X0, Y1: ly + w}
			}
		}
		if leg.X0 >= margin && leg.Y0 >= margin && leg.X1 <= n-margin && leg.Y1 <= n-margin {
			rects = append(rects, leg)
		}
	}
	return rects
}

// free reports whether every rect avoids previously placed geometry; the
// required spacing is already baked into blocked (placements dilate).
func free(blocked *grid.Mat, rects []geom.Rect) bool {
	for _, r := range rects {
		q := geom.Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}.
			Intersect(geom.Rect{X0: 0, Y0: 0, X1: blocked.W, Y1: blocked.H})
		if q.Empty() {
			return false
		}
		for y := q.Y0; y < q.Y1; y++ {
			for x := q.X0; x < q.X1; x++ {
				if blocked.At(x, y) >= 0.5 {
					return false
				}
			}
		}
	}
	return true
}

// ViaCase generates one via-layer case: count isolated contacts of
// 55–75 nm side with generous spacing, as in the dataset of [14] (at this
// λ/NA an isolated contact needs ≈70 nm of mask CD to reach the print
// threshold, matching 32 nm-node via layers).
func ViaCase(n int, fieldNM float64, index, count int) (Case, error) {
	if n < 64 || n&(n-1) != 0 {
		return Case{}, fmt.Errorf("bench: grid size %d must be a power of two ≥ 64", n)
	}
	if fieldNM <= 0 {
		return Case{}, fmt.Errorf("bench: field %g must be positive", fieldNM)
	}
	if count < 1 {
		return Case{}, fmt.Errorf("bench: via count %d must be ≥ 1", count)
	}
	pixel := fieldNM / float64(n)
	rng := rand.New(rand.NewSource(int64(104729*index + 7)))
	target := grid.NewMat(n, n)
	blocked := grid.NewMat(n, n)
	lay := layout.New(n, pixel)

	toPx := func(nm float64) int {
		v := int(nm/pixel + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	// Spacing/margin shrink with cropped fields like the M1 generator.
	crop := fieldNM / PaperFieldNM
	spacing := toPx(220 * crop)
	if spacing < toPx(90) {
		spacing = toPx(90)
	}
	margin := toPx(300 * crop)
	if 2*margin >= n-4 {
		margin = n/8 + 1
	}
	placedCount := 0
	for attempt := 0; attempt < 20000 && placedCount < count; attempt++ {
		side := toPx(55 + 20*rng.Float64())
		lo, hi := margin, n-margin-side
		if hi <= lo {
			break
		}
		x0 := lo + rng.Intn(hi-lo)
		y0 := lo + rng.Intn(hi-lo)
		r := geom.Rect{X0: x0, Y0: y0, X1: x0 + side, Y1: y0 + side}
		if !free(blocked, []geom.Rect{r}) {
			continue
		}
		geom.FillRect(target, r, 1)
		geom.FillRect(blocked, geom.Rect{
			X0: r.X0 - spacing, Y0: r.Y0 - spacing,
			X1: r.X1 + spacing, Y1: r.Y1 + spacing,
		}, 1)
		lay.AddRect(r)
		placedCount++
	}
	if placedCount == 0 {
		return Case{}, fmt.Errorf("bench: could not place any vias on a %d grid", n)
	}
	area := target.Sum()
	return Case{
		Name:         fmt.Sprintf("via%d", index),
		Index:        index,
		N:            n,
		PixelNM:      pixel,
		Target:       target,
		Layout:       lay,
		PaperAreaNM2: 0,
		AreaNM2:      area * pixel * pixel,
	}, nil
}

// PaperVia generates via case index (≥ 1) of ViaSuite without building
// the whole suite: 6 + ((index−1) mod 5)·3 vias, so a case named viaN has
// one layout wherever it is built.
func PaperVia(n int, fieldNM float64, index int) (Case, error) {
	if index < 1 {
		return Case{}, fmt.Errorf("bench: no via case %d", index)
	}
	return ViaCase(n, fieldNM, index, 6+((index-1)%5)*3)
}

// ViaSuite generates the requested number of via cases with a spread of
// via counts, mirroring the "fifteen randomly chosen via patterns".
func ViaSuite(n int, fieldNM float64, cases int) ([]Case, error) {
	out := make([]Case, 0, cases)
	for i := 0; i < cases; i++ {
		c, err := PaperVia(n, fieldNM, i+1)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
