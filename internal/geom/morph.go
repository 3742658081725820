package geom

import "repro/internal/grid"

// Box morphology with a square (2h+1)×(2h+1) structuring element, i.e.
// Chebyshev-ball dilation/erosion. Both are separable into a horizontal and
// a vertical running max/min pass, so the cost is O(pixels · h) worst case
// and independent of the set-pixel count.

// DilateBox returns the binary dilation of m by a square of half-width h.
func DilateBox(m *grid.Mat, h int) *grid.Mat {
	if h <= 0 {
		return m.Clone()
	}
	return boxExtreme(m, h, true)
}

// ErodeBox returns the binary erosion of m by a square of half-width h.
// Pixels within h of the image border erode away (the outside counts as 0).
func ErodeBox(m *grid.Mat, h int) *grid.Mat {
	if h <= 0 {
		return m.Clone()
	}
	return boxExtreme(m, h, false)
}

func boxExtreme(m *grid.Mat, h int, dilate bool) *grid.Mat {
	w, ht := m.W, m.H
	tmp := grid.NewMat(w, ht)
	out := grid.NewMat(w, ht)
	// Horizontal pass.
	for y := 0; y < ht; y++ {
		row := m.Data[y*w : (y+1)*w]
		trow := tmp.Data[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			x0, x1 := x-h, x+h
			if x0 < 0 {
				x0 = 0
			}
			if x1 > w-1 {
				x1 = w - 1
			}
			v := pick(row[x0:x1+1], dilate)
			if !dilate && (x-h < 0 || x+h > w-1) {
				v = 0 // border counts as background for erosion
			}
			trow[x] = v
		}
	}
	// Vertical pass.
	for x := 0; x < w; x++ {
		for y := 0; y < ht; y++ {
			y0, y1 := y-h, y+h
			if y0 < 0 {
				y0 = 0
			}
			if y1 > ht-1 {
				y1 = ht - 1
			}
			var v float64
			if dilate {
				for yy := y0; yy <= y1; yy++ {
					if tmp.Data[yy*w+x] >= 0.5 {
						v = 1
						break
					}
				}
			} else {
				v = 1
				if y-h < 0 || y+h > ht-1 {
					v = 0
				} else {
					for yy := y0; yy <= y1; yy++ {
						if tmp.Data[yy*w+x] < 0.5 {
							v = 0
							break
						}
					}
				}
			}
			out.Data[y*w+x] = v
		}
	}
	return out
}

func pick(vals []float64, dilate bool) float64 {
	if dilate {
		for _, v := range vals {
			if v >= 0.5 {
				return 1
			}
		}
		return 0
	}
	for _, v := range vals {
		if v < 0.5 {
			return 0
		}
	}
	return 1
}
