package mask

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestSigmoidPaperInitialValues(t *testing.T) {
	// Section III-C: with M′ ∈ {0, 1} (the target seed) and β = 4, the
	// binarized mask starts at {0.5, ≈0.98} for T_R = 0 and {≈0.12, ≈0.88}
	// for T_R = 0.5 — the "{≈0.1, ≈0.9}" the paper quotes.
	mp := grid.FromSlice(2, 1, []float64{0, 1})

	m0 := Sigmoid{Beta: DefaultBeta, TR: 0}.Apply(mp)
	if math.Abs(m0.Data[0]-0.5) > 1e-12 {
		t.Errorf("T_R=0: f(0) = %v, want 0.5", m0.Data[0])
	}
	if math.Abs(m0.Data[1]-0.982) > 0.001 {
		t.Errorf("T_R=0: f(1) = %v, want ≈0.982", m0.Data[1])
	}

	m5 := Sigmoid{Beta: DefaultBeta, TR: 0.5}.Apply(mp)
	if math.Abs(m5.Data[0]-0.119) > 0.001 || math.Abs(m5.Data[1]-0.881) > 0.001 {
		t.Errorf("T_R=0.5: f({0,1}) = {%v, %v}, want ≈{0.12, 0.88}", m5.Data[0], m5.Data[1])
	}
	// Symmetry around T_R: f(0) + f(1) = 1 for T_R = 0.5.
	if math.Abs(m5.Data[0]+m5.Data[1]-1) > 1e-12 {
		t.Error("T_R=0.5 not symmetric around 0.5")
	}
}

func TestSigmoidGradMatchesFiniteDifference(t *testing.T) {
	f := func(v, tr float64) bool {
		v = math.Mod(v, 3)
		tr = math.Mod(tr, 1)
		s := Sigmoid{Beta: DefaultBeta, TR: tr}
		mp := grid.FromSlice(1, 1, []float64{v})
		m := s.Apply(mp)
		g := s.Grad(mp, m)
		const eps = 1e-6
		p := s.Apply(grid.FromSlice(1, 1, []float64{v + eps}))
		q := s.Apply(grid.FromSlice(1, 1, []float64{v - eps}))
		fd := (p.Data[0] - q.Data[0]) / (2 * eps)
		return math.Abs(fd-g.Data[0]) < 1e-6*(1+math.Abs(fd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSigmoidGradientPeakAtTR(t *testing.T) {
	// Fig. 5(b): the gradient is largest at M′ = T_R. With T_R = 0 the
	// opaque pixels (M′ = 0) sit exactly on the peak, which is what drives
	// them strongly negative after the first iteration.
	s := Sigmoid{Beta: DefaultBeta, TR: 0.5}
	grad := func(v float64) float64 {
		mp := grid.FromSlice(1, 1, []float64{v})
		return s.Grad(mp, s.Apply(mp)).Data[0]
	}
	gPeak := grad(0.5)
	for _, v := range []float64{-1, 0, 0.2, 0.8, 1, 2} {
		if grad(v) > gPeak+1e-12 {
			t.Errorf("gradient at %v exceeds peak at T_R", v)
		}
	}
	if math.Abs(gPeak-DefaultBeta/4) > 1e-12 {
		t.Errorf("peak gradient %v, want β/4 = %v", gPeak, DefaultBeta/4)
	}
}

func TestCosineApplyAndGrad(t *testing.T) {
	var c Cosine
	mp := grid.FromSlice(3, 1, []float64{0, math.Pi / 2, math.Pi})
	m := c.Apply(mp)
	want := []float64{1, 0.5, 0}
	for i, w := range want {
		if math.Abs(m.Data[i]-w) > 1e-12 {
			t.Errorf("cosine apply[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	g := c.Grad(mp, m)
	const eps = 1e-6
	for i, v := range mp.Data {
		p := c.Apply(grid.FromSlice(1, 1, []float64{v + eps}))
		q := c.Apply(grid.FromSlice(1, 1, []float64{v - eps}))
		fd := (p.Data[0] - q.Data[0]) / (2 * eps)
		if math.Abs(fd-g.Data[i]) > 1e-6 {
			t.Errorf("cosine grad[%d] = %v, fd %v", i, g.Data[i], fd)
		}
	}
}

func TestCosinePeriodicityMotivatesSigmoid(t *testing.T) {
	// The paper's stated reason for the sigmoid: the cosine is periodic, so
	// two distinct parameters map to the same mask value.
	var c Cosine
	a := c.Apply(grid.FromSlice(1, 1, []float64{1}))
	b := c.Apply(grid.FromSlice(1, 1, []float64{1 + 2*math.Pi}))
	if math.Abs(a.Data[0]-b.Data[0]) > 1e-12 {
		t.Error("cosine not periodic?")
	}
}

func TestBinarizeAndFinalOutput(t *testing.T) {
	m := grid.FromSlice(3, 1, []float64{0.3, 0.5, 0.7})
	b := Binarize(m, DefaultFinalThreshold)
	if b.Data[0] != 0 || b.Data[1] != 1 || b.Data[2] != 1 {
		t.Errorf("Binarize = %v", b.Data)
	}

	// A weak SRAF at M′ = 0.45: lost with output T_R = 0.5, kept with 0.4.
	mp := grid.FromSlice(1, 1, []float64{0.45})
	strict := FinalOutput(mp, DefaultBeta, 0.5, DefaultFinalThreshold)
	relaxed := FinalOutput(mp, DefaultBeta, 0.4, DefaultFinalThreshold)
	if strict.Data[0] != 0 {
		t.Error("T_R=0.5 output unexpectedly kept the weak SRAF")
	}
	if relaxed.Data[0] != 1 {
		t.Error("T_R=0.4 output lost the weak SRAF the paper's scheme keeps")
	}
}

func TestRegionOption1HugsFeatures(t *testing.T) {
	tgt := grid.NewMat(32, 32)
	geom.FillRect(tgt, geom.Rect{X0: 10, Y0: 10, X1: 14, Y1: 14}, 1)
	r, err := Region(tgt, Option1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(7, 7) != 1 || r.At(16, 16) != 1 {
		t.Error("option 1 region does not include the margin")
	}
	if r.At(2, 2) != 0 || r.At(25, 25) != 0 {
		t.Error("option 1 region extends too far")
	}
}

func TestRegionOption2CoversLayoutBox(t *testing.T) {
	tgt := grid.NewMat(32, 32)
	geom.FillRect(tgt, geom.Rect{X0: 4, Y0: 4, X1: 6, Y1: 6}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 24, Y0: 24, X1: 26, Y1: 26}, 1)
	r2, err := Region(tgt, Option2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The gap between the two features is inside option 2...
	if r2.At(15, 15) != 1 {
		t.Error("option 2 region does not cover the layout interior")
	}
	// ...but outside option 1 with the same margin.
	r1, err := Region(tgt, Option1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.At(15, 15) != 0 {
		t.Error("option 1 region unexpectedly covers the layout interior")
	}
	// Option 2 must be a superset of option 1.
	for i := range r1.Data {
		if r1.Data[i] > r2.Data[i] {
			t.Fatal("option 1 region not contained in option 2")
		}
	}
}

func TestRegionEmptyTargetAndBadOption(t *testing.T) {
	empty := grid.NewMat(8, 8)
	r, err := Region(empty, Option2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sum() != 0 {
		t.Error("empty target produced a nonzero option-2 region")
	}
	if _, err := Region(empty, RegionOption(7), 2); err == nil {
		t.Error("unknown region option accepted")
	}
}

func TestApplyRegionZeroesOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid.NewMat(8, 8)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	region := grid.NewMat(8, 8)
	geom.FillRect(region, geom.Rect{X0: 2, Y0: 2, X1: 6, Y1: 6}, 1)
	ApplyRegion(g, region)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			inside := x >= 2 && x < 6 && y >= 2 && y < 6
			if !inside && g.At(x, y) != 0 {
				t.Fatalf("gradient outside region not zeroed at (%d,%d)", x, y)
			}
		}
	}
}

func TestApplyRegionShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	ApplyRegion(grid.NewMat(4, 4), grid.NewMat(8, 8))
}
