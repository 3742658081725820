package geom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func bitmapFromStrings(rows ...string) *grid.Mat {
	h := len(rows)
	w := len(rows[0])
	m := grid.NewMat(w, h)
	for y, r := range rows {
		for x, c := range r {
			if c == '#' {
				m.Set(x, y, 1)
			}
		}
	}
	return m
}

func TestRectBasics(t *testing.T) {
	r := Rect{1, 2, 4, 6}
	if r.W() != 3 || r.H() != 4 || r.Area() != 12 || r.Empty() {
		t.Fatalf("Rect basics broken: %+v", r)
	}
	u := r.Union(Rect{0, 0, 2, 3})
	if u != (Rect{0, 0, 4, 6}) {
		t.Errorf("Union = %+v", u)
	}
	i := r.Intersect(Rect{2, 3, 10, 4})
	if i != (Rect{2, 3, 4, 4}) {
		t.Errorf("Intersect = %+v", i)
	}
	if !r.Intersect(Rect{5, 5, 6, 6}).Empty() {
		t.Error("disjoint Intersect not empty")
	}
}

func TestComponentsTwoRegions(t *testing.T) {
	m := bitmapFromStrings(
		"##..#",
		"##..#",
		".....",
	)
	comps := Components(m)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Area != 4 || comps[0].BBox != (Rect{0, 0, 2, 2}) {
		t.Errorf("component 0: %+v", comps[0])
	}
	if comps[1].Area != 2 || comps[1].BBox != (Rect{4, 0, 5, 2}) {
		t.Errorf("component 1: %+v", comps[1])
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	m := bitmapFromStrings(
		"#.",
		".#",
	)
	if got := len(Components(m)); got != 2 {
		t.Fatalf("diagonal pixels merged: %d components, want 2 (4-connectivity)", got)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := len(Components(grid.NewMat(5, 5))); got != 0 {
		t.Fatalf("empty image has %d components", got)
	}
}

func TestRemoveComponent(t *testing.T) {
	m := bitmapFromStrings(
		"##..#",
		"##..#",
	)
	labels, comps := Label(m)
	RemoveComponent(m, labels, comps[1].Label)
	if m.At(4, 0) != 0 || m.At(0, 0) != 1 {
		t.Error("RemoveComponent removed the wrong region")
	}
}

func TestDilateErodeBox(t *testing.T) {
	m := grid.NewMat(9, 9)
	m.Set(4, 4, 1)
	d := DilateBox(m, 1)
	if d.Sum() != 9 {
		t.Errorf("dilated area %v, want 9", d.Sum())
	}
	e := ErodeBox(d, 1)
	if e.Sum() != 1 || e.At(4, 4) != 1 {
		t.Errorf("erode(dilate(point)) area %v", e.Sum())
	}
}

func TestErodeBorderIsBackground(t *testing.T) {
	m := grid.NewMat(5, 5)
	m.Fill(1)
	e := ErodeBox(m, 1)
	// Only the 3x3 interior survives.
	if e.Sum() != 9 {
		t.Errorf("eroded full-frame area %v, want 9", e.Sum())
	}
	if e.At(0, 0) != 0 || e.At(2, 2) != 1 {
		t.Error("erosion border handling wrong")
	}
}

func TestDilateZeroIsClone(t *testing.T) {
	m := bitmapFromStrings("#.")
	d := DilateBox(m, 0)
	if !d.Equal(m, 0) {
		t.Error("h=0 dilation not identity")
	}
	d.Set(1, 0, 1)
	if m.At(1, 0) != 0 {
		t.Error("h=0 dilation aliases input")
	}
}

func checkFracture(t *testing.T, m *grid.Mat, rects []Rect) {
	t.Helper()
	cover := grid.NewMat(m.W, m.H)
	for _, r := range rects {
		if r.Empty() || r.X0 < 0 || r.Y0 < 0 || r.X1 > m.W || r.Y1 > m.H {
			t.Fatalf("invalid rect %+v", r)
		}
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				if cover.At(x, y) != 0 {
					t.Fatalf("rectangles overlap at (%d,%d)", x, y)
				}
				cover.Set(x, y, 1)
			}
		}
	}
	for i := range m.Data {
		set := m.Data[i] >= 0.5
		if set != (cover.Data[i] == 1) {
			t.Fatalf("coverage mismatch at index %d: mask %v cover %v", i, m.Data[i], cover.Data[i])
		}
	}
}

func TestFractureRunMergeSimpleShapes(t *testing.T) {
	cases := []struct {
		rows []string
		want int
	}{
		{[]string{"####", "####"}, 1},
		{[]string{"##..", "##..", "..##", "..##"}, 2},
		{[]string{"###.", "###.", "##..", "##.."}, 2}, // L-shape: 2 maximal stacks
		{[]string{"....", "....", "...."}, 0},
	}
	for i, c := range cases {
		m := bitmapFromStrings(c.rows...)
		rects := FractureRunMerge(m)
		checkFracture(t, m, rects)
		if len(rects) != c.want {
			t.Errorf("case %d: %d rects, want %d", i, len(rects), c.want)
		}
	}
}

func TestFracturePropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := grid.NewMat(24, 18)
		for i := range m.Data {
			if rng.Float64() < 0.4 {
				m.Data[i] = 1
			}
		}
		rects := FractureRunMerge(m)
		// Exact disjoint cover: total rect area equals set-pixel count, and
		// re-rasterising the rects reproduces the mask.
		area := 0
		cover := grid.NewMat(m.W, m.H)
		for _, r := range rects {
			area += r.Area()
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					if cover.At(x, y) != 0 {
						return false
					}
					cover.Set(x, y, 1)
				}
			}
		}
		if float64(area) != m.Sum() {
			return false
		}
		return cover.Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShotCountRegularVsRagged(t *testing.T) {
	// A clean rectangle fractures into 1 shot; a ragged staircase of equal
	// area needs many — the property Table I's #shots column relies on.
	clean := grid.NewMat(16, 16)
	FillRect(clean, Rect{4, 4, 12, 12}, 1)
	ragged := grid.NewMat(16, 16)
	for y := 4; y < 12; y++ {
		FillRect(ragged, Rect{4 + (y % 3), y, 12 + (y % 3) - 3, y + 1}, 1)
	}
	if ShotCount(clean) != 1 {
		t.Errorf("clean rectangle shots = %d, want 1", ShotCount(clean))
	}
	if ShotCount(ragged) <= ShotCount(clean) {
		t.Error("ragged mask does not cost more shots than clean mask")
	}
}

func TestPolygonValidate(t *testing.T) {
	good := Polygon{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid polygon rejected: %v", err)
	}
	bad := Polygon{{0, 0}, {4, 3}, {4, 4}, {0, 4}}
	if err := bad.Validate(); err == nil {
		t.Error("diagonal segment accepted")
	}
	short := Polygon{{0, 0}, {4, 0}, {4, 4}}
	if err := short.Validate(); err == nil {
		t.Error("3-vertex polygon accepted")
	}
	dup := Polygon{{0, 0}, {0, 0}, {4, 0}, {4, 4}}
	if err := dup.Validate(); err == nil {
		t.Error("zero-length segment accepted")
	}
}

func TestPolygonAreaAndBBox(t *testing.T) {
	p := RectPolygon(Rect{1, 2, 5, 7})
	if p.Area() != 20 {
		t.Errorf("area = %d, want 20", p.Area())
	}
	if p.BBox() != (Rect{1, 2, 5, 7}) {
		t.Errorf("bbox = %+v", p.BBox())
	}
}

func TestRasterizeRectangle(t *testing.T) {
	m := grid.NewMat(8, 8)
	if err := RectPolygon(Rect{2, 1, 6, 5}).Rasterize(m); err != nil {
		t.Fatal(err)
	}
	if m.Sum() != 16 {
		t.Errorf("rasterized area %v, want 16", m.Sum())
	}
	if m.At(2, 1) != 1 || m.At(5, 4) != 1 || m.At(6, 5) != 0 || m.At(1, 1) != 0 {
		t.Error("rectangle rasterization bounds wrong (half-open convention)")
	}
}

func TestRasterizeLShape(t *testing.T) {
	// L-shape: 4x4 square plus a 2x4 extension.
	p := Polygon{{0, 0}, {4, 0}, {4, 2}, {6, 2}, {6, 6}, {0, 6}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := grid.NewMat(8, 8)
	if err := p.Rasterize(m); err != nil {
		t.Fatal(err)
	}
	wantArea := p.Area()
	if int(m.Sum()) != wantArea {
		t.Errorf("rasterized area %v, want %d (shoelace)", m.Sum(), wantArea)
	}
	if m.At(5, 1) != 0 || m.At(5, 3) != 1 || m.At(1, 1) != 1 {
		t.Error("L-shape rasterization content wrong")
	}
}

func TestRasterizeClipsToImage(t *testing.T) {
	m := grid.NewMat(4, 4)
	if err := RectPolygon(Rect{-2, -2, 2, 2}).Rasterize(m); err != nil {
		t.Fatal(err)
	}
	if m.Sum() != 4 {
		t.Errorf("clipped area %v, want 4", m.Sum())
	}
}

// Property: rasterize(fracture(m)) == m for random masks — the two
// representations round-trip.
func TestFractureRasterizeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := grid.NewMat(20, 20)
		for k := 0; k < 6; k++ {
			x0, y0 := rng.Intn(16), rng.Intn(16)
			FillRect(m, Rect{x0, y0, x0 + 1 + rng.Intn(4), y0 + 1 + rng.Intn(4)}, 1)
		}
		back := grid.NewMat(20, 20)
		for _, r := range FractureRunMerge(m) {
			if err := RectPolygon(r).Rasterize(back); err != nil {
				return false
			}
		}
		return back.Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEdgeSegmentsSquare(t *testing.T) {
	m := grid.NewMat(8, 8)
	FillRect(m, Rect{2, 3, 6, 6}, 1)
	segs := EdgeSegments(m)
	if len(segs) != 4 {
		t.Fatalf("square has %d segments, want 4", len(segs))
	}
	var totalLen int
	for _, s := range segs {
		totalLen += s.Len()
	}
	if totalLen != 2*(4+3) {
		t.Errorf("perimeter %d, want 14", totalLen)
	}
	// Check one specific segment: the top edge at y=3 spans x∈[2,6), inward +1.
	found := false
	for _, s := range segs {
		if s.Orient == Horizontal && s.Pos == 3 && s.Lo == 2 && s.Hi == 6 && s.Inward == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("top edge segment missing: %+v", segs)
	}
}

func TestEdgeSegmentsBorderTouching(t *testing.T) {
	m := grid.NewMat(4, 4)
	m.Fill(1)
	segs := EdgeSegments(m)
	var total int
	for _, s := range segs {
		total += s.Len()
	}
	if total != 16 {
		t.Errorf("full-frame perimeter %d, want 16", total)
	}
}

func TestSampleEdgesSpacing(t *testing.T) {
	segs := []Segment{{Orient: Horizontal, Pos: 5, Lo: 0, Hi: 40, Inward: 1}}
	pts := SampleEdges(segs, 10)
	if len(pts) != 4 {
		t.Fatalf("got %d sample points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Y != 5 || p.NY != 1 || p.NX != 0 {
			t.Errorf("bad sample point %+v", p)
		}
	}
	// A short segment still gets one point.
	short := []Segment{{Orient: Vertical, Pos: 3, Lo: 0, Hi: 6, Inward: -1}}
	pv := SampleEdges(short, 10)
	if len(pv) != 1 {
		t.Fatalf("short segment got %d points, want 1", len(pv))
	}
	if pv[0].X != 2 || pv[0].NX != -1 {
		t.Errorf("inward -1 vertical sample wrong: %+v", pv[0])
	}
}

func TestFillRectClips(t *testing.T) {
	m := grid.NewMat(4, 4)
	FillRect(m, Rect{-5, -5, 100, 2}, 1)
	if m.Sum() != 8 {
		t.Errorf("clipped fill area %v, want 8", m.Sum())
	}
}
