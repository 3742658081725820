package optics

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	good := TestScale()
	if err := good.Validate(); err != nil {
		t.Fatalf("TestScale config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.FieldNM = 0 },
		func(c *Config) { c.WavelengthNM = -1 },
		func(c *Config) { c.NA = 0 },
		func(c *Config) { c.SigmaIn = 0.9; c.SigmaOut = 0.6 },
		func(c *Config) { c.SigmaOut = 1.5 },
		func(c *Config) { c.NumKernels = 0 },
		func(c *Config) { c.KernelSize = 8 },
		func(c *Config) { c.SourceGrid = 2 },
	}
	for i, mutate := range cases {
		c := TestScale()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAutoKernelSizePaperScale(t *testing.T) {
	c := Default()
	if got := c.P(); got != 35 {
		t.Errorf("P at paper scale = %d, want 35", got)
	}
	c.FieldNM = 512
	if got := c.P(); got != 13 {
		t.Errorf("P at 512 nm field = %d, want 13", got)
	}
	c.KernelSize = 21
	if got := c.P(); got != 21 {
		t.Errorf("explicit P = %d, want 21", got)
	}
}

func TestDiscretizeSourceAnnulus(t *testing.T) {
	c := TestScale()
	pts := DiscretizeSource(c)
	if len(pts) == 0 {
		t.Fatal("no source points")
	}
	var wsum float64
	scale := c.NA / c.WavelengthNM
	for _, p := range pts {
		wsum += p.Weight
		sigma := math.Hypot(p.FX, p.FY) / scale
		if sigma < c.SigmaIn-1e-9 || sigma > c.SigmaOut+1e-9 {
			t.Fatalf("source point at σ=%g outside annulus [%g, %g]", sigma, c.SigmaIn, c.SigmaOut)
		}
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Errorf("source weights sum to %g, want 1", wsum)
	}
}

func TestDiscretizeSourceThinRingFallback(t *testing.T) {
	c := TestScale()
	c.SigmaIn = 0.700
	c.SigmaOut = 0.701
	c.SourceGrid = 5
	pts := DiscretizeSource(c)
	if len(pts) == 0 {
		t.Fatal("thin-ring fallback produced no points")
	}
}

func TestPupilCutoffAndDefocus(t *testing.T) {
	c := TestScale()
	fc := c.NA / c.WavelengthNM
	if Pupil(c, 0, 0, 0) != 1 {
		t.Error("pupil at DC should be 1")
	}
	if Pupil(c, fc*1.01, 0, 0) != 0 {
		t.Error("pupil beyond NA should be 0")
	}
	v := Pupil(c, fc/2, 0, 30)
	if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
		t.Errorf("defocused pupil magnitude %g, want 1", cmplx.Abs(v))
	}
	if imag(v) == 0 {
		t.Error("defocused pupil should carry phase")
	}
}

func TestBuildModelKernels(t *testing.T) {
	c := TestScale()
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range []*KernelSet{m.Nominal, m.Defocus} {
		if len(ks.Kernels) == 0 || len(ks.Kernels) != len(ks.Weights) {
			t.Fatalf("kernel set sizes: %d kernels, %d weights", len(ks.Kernels), len(ks.Weights))
		}
		if ks.P != c.P() {
			t.Fatalf("kernel support %d, want %d", ks.P, c.P())
		}
		// Weights descending and positive.
		for k := 1; k < len(ks.Weights); k++ {
			if ks.Weights[k] <= 0 {
				t.Fatalf("weight %d not positive: %g", k, ks.Weights[k])
			}
			if ks.Weights[k] > ks.Weights[k-1]+1e-12 {
				t.Fatalf("weights not descending at %d", k)
			}
		}
		// Open-frame normalisation: Σ w_k |H_k(DC)|² == 1.
		var open float64
		ctr := ks.P / 2
		for k, h := range ks.Kernels {
			dc := h.At(ctr, ctr)
			open += ks.Weights[k] * (real(dc)*real(dc) + imag(dc)*imag(dc))
		}
		if math.Abs(open-1) > 1e-9 {
			t.Errorf("open-frame intensity %g, want 1", open)
		}
	}
	// The defocus set must actually differ from the nominal set.
	if m.Nominal.Kernels[0].MaxAbsDiff(m.Defocus.Kernels[0]) < 1e-9 {
		t.Error("defocus kernels identical to nominal")
	}
}

func TestBuildModelCached(t *testing.T) {
	c := TestScale()
	m1, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("BuildModel did not return the cached model")
	}
}

func TestBuildModelRejectsInvalid(t *testing.T) {
	c := TestScale()
	c.NA = -1
	if _, err := BuildModel(c); err == nil {
		t.Fatal("invalid config accepted by BuildModel")
	}
}

func TestEnergyCapture(t *testing.T) {
	c := TestScale()
	c.SourceGrid = 5
	cap8, tr, err := EnergyCapture(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap8 <= 0 || tr <= 0 || cap8 > tr+1e-9 {
		t.Fatalf("capture %g / trace %g out of range", cap8, tr)
	}
	c2 := c
	c2.NumKernels = 2
	cap2, _, err := EnergyCapture(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap2 > cap8+1e-9 {
		t.Errorf("2-kernel capture %g exceeds 8-kernel capture %g", cap2, cap8)
	}
	// The captured shares the subspace-iteration solver reported: the exact
	// eigenpairs must reproduce them.
	for _, tc := range []struct {
		name  string
		c     Config
		share float64
	}{{"TestScale", TestScale(), 0.917780968206936}, {"iltbench", iltbenchScale(), 0.93468883584816}} {
		captured, trace, err := EnergyCapture(tc.c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := captured / trace; math.Abs(got-tc.share) > 1e-9 {
			t.Errorf("%s: captured/trace = %.15g, want %.15g", tc.name, got, tc.share)
		}
	}
}

func TestCanonicalPhaseDeterminism(t *testing.T) {
	c := TestScale()
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild bypassing the cache; kernels must match exactly.
	ks, err := buildKernelSet(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Kernels) != len(m.Nominal.Kernels) {
		t.Fatalf("kernel count changed between builds: %d vs %d", len(ks.Kernels), len(m.Nominal.Kernels))
	}
	for k := range ks.Kernels {
		if d := ks.Kernels[k].MaxAbsDiff(m.Nominal.Kernels[k]); d > 1e-12 {
			t.Errorf("kernel %d differs between identical builds by %g", k, d)
		}
	}
}

func TestSourceShapes(t *testing.T) {
	base := TestScale()
	counts := map[SourceShape]int{}
	for _, shape := range []SourceShape{Annular, Circular, Dipole, Quasar} {
		c := base
		c.Shape = shape
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		pts := DiscretizeSource(c)
		if len(pts) == 0 {
			t.Fatalf("%v: no source points", shape)
		}
		counts[shape] = len(pts)
		var wsum float64
		for _, p := range pts {
			wsum += p.Weight
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Errorf("%v: weights sum to %g", shape, wsum)
		}
	}
	// Circular ⊇ Annular ⊇ Dipole/Quasar subsets.
	if counts[Circular] <= counts[Annular] {
		t.Errorf("circular %d not larger than annular %d", counts[Circular], counts[Annular])
	}
	if counts[Dipole] >= counts[Annular] || counts[Quasar] >= counts[Annular] {
		t.Errorf("pole shapes not subsets: dipole %d quasar %d annular %d",
			counts[Dipole], counts[Quasar], counts[Annular])
	}
}

func TestDipoleGeometry(t *testing.T) {
	c := TestScale()
	c.Shape = Dipole
	c.SourceGrid = 15
	scale := c.NA / c.WavelengthNM
	for _, p := range DiscretizeSource(c) {
		sx, sy := p.FX/scale, p.FY/scale
		if sx*sx < sy*sy {
			t.Fatalf("dipole point (%g, %g) closer to the Y axis", sx, sy)
		}
	}
}

func TestQuasarGeometry(t *testing.T) {
	c := TestScale()
	c.Shape = Quasar
	c.SourceGrid = 15
	scale := c.NA / c.WavelengthNM
	for _, p := range DiscretizeSource(c) {
		sx, sy := p.FX/scale, p.FY/scale
		r2 := sx*sx + sy*sy
		if r2 == 0 {
			t.Fatal("quasar contains the origin")
		}
		if s2 := math.Abs(2 * sx * sy / r2); s2 < sin45-1e-9 {
			t.Fatalf("quasar point (%g, %g) off the diagonals (|sin2θ|=%g)", sx, sy, s2)
		}
	}
}

func TestSourceShapeString(t *testing.T) {
	if Annular.String() != "annular" || Quasar.String() != "quasar" {
		t.Error("SourceShape.String broken")
	}
	if SourceShape(9).String() == "" {
		t.Error("unknown shape has empty String")
	}
}

func TestShapeChangesKernels(t *testing.T) {
	a := TestScale()
	d := TestScale()
	d.Shape = Dipole
	ma, err := BuildModel(a)
	if err != nil {
		t.Fatal(err)
	}
	md, err := BuildModel(d)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Nominal.Kernels[0].MaxAbsDiff(md.Nominal.Kernels[0]) < 1e-9 {
		t.Error("dipole kernels identical to annular")
	}
}
