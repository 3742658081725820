package bench

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestM1SuiteAreasTrackPaper(t *testing.T) {
	cases, err := M1Suite(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 10 {
		t.Fatalf("%d cases, want 10", len(cases))
	}
	for _, c := range cases {
		if c.Target.W != 512 || c.PixelNM != 4 {
			t.Fatalf("%s: size %d pixel %g", c.Name, c.Target.W, c.PixelNM)
		}
		rel := math.Abs(c.AreaNM2-c.PaperAreaNM2) / c.PaperAreaNM2
		if rel > 0.20 {
			t.Errorf("%s: generated area %.0f vs paper %.0f (%.0f%% off)",
				c.Name, c.AreaNM2, c.PaperAreaNM2, rel*100)
		}
	}
}

func TestM1SuiteDeterministic(t *testing.T) {
	a, err := M1Suite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := M1Suite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Target.Equal(b[i].Target, 0) {
			t.Fatalf("%s not deterministic", a[i].Name)
		}
	}
}

func TestM1CasesDiffer(t *testing.T) {
	cases, err := M1Suite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if cases[0].Target.Equal(cases[1].Target, 0) {
		t.Error("case1 and case2 are identical")
	}
}

func TestM1ShapesRespectSpacing(t *testing.T) {
	cases, err := M1Suite(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	// Components must stay separated: dilating by half the spacing must
	// not reduce the component count (no near-touching shapes merge).
	before := len(geom.Components(c.Target))
	spacingPx := int(70 / c.PixelNM) // generator spacing in px
	dil := geom.DilateBox(c.Target, spacingPx/2-1)
	after := len(geom.Components(dil))
	if before == 0 {
		t.Fatal("no components generated")
	}
	if after < before {
		t.Errorf("components merged under half-spacing dilation: %d → %d", before, after)
	}
}

func TestExtendedSuiteDenser(t *testing.T) {
	m1, err := M1Suite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendedSuite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 10 {
		t.Fatalf("%d extended cases", len(ext))
	}
	if ext[0].Index != 11 || ext[9].Index != 20 {
		t.Errorf("extended indices %d..%d", ext[0].Index, ext[9].Index)
	}
	var m1Area, extArea float64
	for i := range m1 {
		m1Area += m1[i].Target.Sum()
		extArea += ext[i].Target.Sum()
	}
	if extArea <= m1Area {
		t.Errorf("extended suite not denser: %v vs %v px²", extArea, m1Area)
	}
}

func TestLayoutMatchesTarget(t *testing.T) {
	cases, err := M1Suite(256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[:3] {
		m, err := c.Layout.Rasterize()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(c.Target, 0) {
			t.Errorf("%s: layout rasterization differs from target", c.Name)
		}
	}
}

func TestM1CaseRejectsBadGrid(t *testing.T) {
	if _, err := M1Case(100, 2048, 1, 215344, m1Params()); err == nil {
		t.Error("non-power-of-two grid accepted")
	}
	if _, err := M1Case(32, 2048, 1, 215344, m1Params()); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestViaSuite(t *testing.T) {
	cases, err := ViaSuite(256, 2048, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 5 {
		t.Fatalf("%d via cases", len(cases))
	}
	for _, c := range cases {
		comps := geom.Components(c.Target)
		if len(comps) == 0 {
			t.Fatalf("%s: no vias placed", c.Name)
		}
		for _, comp := range comps {
			// Vias are small squares: bbox area ≈ component area, and
			// both dimensions below 90 nm.
			if comp.Area != comp.BBox.Area() {
				t.Errorf("%s: via not rectangular", c.Name)
			}
			if float64(comp.BBox.W())*c.PixelNM > 90 {
				t.Errorf("%s: via too wide: %d px", c.Name, comp.BBox.W())
			}
		}
	}
	// Different cases have different via counts (the suite varies count).
	c0 := len(geom.Components(cases[0].Target))
	c4 := len(geom.Components(cases[4].Target))
	if c0 == c4 {
		t.Error("via counts identical across suite")
	}
}

// TestPaperViaMatchesSuite: PaperVia builds the suite's case of the same
// index bit for bit, so viaN names one layout in every tool.
func TestPaperViaMatchesSuite(t *testing.T) {
	suite, err := ViaSuite(256, 2048, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range suite {
		got, err := PaperVia(256, 2048, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || !got.Target.Equal(want.Target, 0) {
			t.Errorf("PaperVia(%d) = %s, differs from the suite's %s", i+1, got.Name, want.Name)
		}
	}
	if _, err := PaperVia(256, 2048, 0); err == nil {
		t.Error("via case 0 accepted")
	}
}

func TestViaCaseValidation(t *testing.T) {
	if _, err := ViaCase(256, 2048, 1, 0); err == nil {
		t.Error("zero via count accepted")
	}
	if _, err := ViaCase(48, 2048, 1, 3); err == nil {
		t.Error("bad grid accepted")
	}
}
