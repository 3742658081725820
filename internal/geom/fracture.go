package geom

import "repro/internal/grid"

// Mask fracturing: decompose the set pixels of a binary mask into disjoint
// axis-aligned rectangles. The rectangle count is the paper's "#shots"
// manufacturability metric (Definition 4) — simpler, more regular masks
// fracture into fewer shots.

// FractureRunMerge decomposes the mask with the classic row-run sweep:
// each row is split into maximal runs of set pixels, and a run that exactly
// matches a rectangle still open from the previous row extends it; otherwise
// rectangles are closed/opened. The result is deterministic, covers every
// set pixel exactly once, and is the decomposition used for the #shots
// metric throughout this repository.
func FractureRunMerge(m *grid.Mat) []Rect {
	type open struct {
		x0, x1, y0 int
	}
	var rects []Rect
	var prev []open
	var cur []open
	for y := 0; y < m.H; y++ {
		cur = cur[:0]
		row := m.Data[y*m.W : (y+1)*m.W]
		x := 0
		for x < m.W {
			if row[x] < 0.5 {
				x++
				continue
			}
			x0 := x
			for x < m.W && row[x] >= 0.5 {
				x++
			}
			cur = append(cur, open{x0: x0, x1: x, y0: y})
		}
		// Match current runs against open rectangles from the previous row.
		pi := 0
		for ci := range cur {
			// Advance past previous runs strictly left of this run.
			for pi < len(prev) && prev[pi].x1 <= cur[ci].x0 {
				rects = append(rects, Rect{prev[pi].x0, prev[pi].y0, prev[pi].x1, y})
				pi++
			}
			if pi < len(prev) && prev[pi].x0 == cur[ci].x0 && prev[pi].x1 == cur[ci].x1 {
				cur[ci].y0 = prev[pi].y0 // exact match: extend
				pi++
			} else {
				// Close every previous run overlapping this one.
				for pi < len(prev) && prev[pi].x0 < cur[ci].x1 {
					rects = append(rects, Rect{prev[pi].x0, prev[pi].y0, prev[pi].x1, y})
					pi++
				}
			}
		}
		for ; pi < len(prev); pi++ {
			rects = append(rects, Rect{prev[pi].x0, prev[pi].y0, prev[pi].x1, y})
		}
		prev = append(prev[:0], cur...)
	}
	for _, p := range prev {
		rects = append(rects, Rect{p.x0, p.y0, p.x1, m.H})
	}
	return rects
}

// ShotCount returns the number of rectangles in the run-merge fracturing —
// the #shots metric.
func ShotCount(m *grid.Mat) int {
	return len(FractureRunMerge(m))
}
