package metrics

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func windowMask(t *testing.T) (*grid.Mat, *grid.Mat) {
	t.Helper()
	tgt := grid.NewMat(128, 128)
	geom.FillRect(tgt, geom.Rect{X0: 40, Y0: 48, X1: 88, Y1: 80}, 1)
	return tgt, tgt.Clone()
}

func TestDoseWindowMonotoneArea(t *testing.T) {
	sim := testSim(t)
	tgt, m := windowMask(t)
	doses := []float64{0.94, 0.98, 1.0, 1.02, 1.06}
	pts, err := DoseWindow(sim, m, tgt, doses, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(doses) {
		t.Fatalf("%d points, want %d", len(pts), len(doses))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Area < pts[i-1].Area {
			t.Errorf("printed area not monotone in dose: %v", pts)
			break
		}
	}
}

func TestDoseWindowWithDefocus(t *testing.T) {
	sim := testSim(t)
	tgt, m := windowMask(t)
	pts, err := DoseWindow(sim, m, tgt, []float64{1.0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2 (nominal + defocus)", len(pts))
	}
	if pts[0].Defocused || !pts[1].Defocused {
		t.Error("defocus flags wrong")
	}
	// Defocus blurs the aerial image; the thresholded area may round to the
	// same pixel count on easy patterns, so compare intensities directly.
	fNom, err := sim.Forward(m, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	fDef, err := sim.Forward(m, sim.Model.Defocus, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	diff := fNom.Intensity.Clone()
	diff.Sub(fDef.Intensity)
	if diff.MaxAbs() < 1e-6 {
		t.Error("defocus aerial image identical to nominal")
	}
	if pts[0].Area == 0 || pts[1].Area == 0 {
		t.Error("window points did not print")
	}
}

func TestDoseWindowValidation(t *testing.T) {
	sim := testSim(t)
	tgt, m := windowMask(t)
	if _, err := DoseWindow(sim, m, tgt, nil, false); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := DoseWindow(sim, m, tgt, []float64{0}, false); err == nil {
		t.Error("zero dose accepted")
	}
}

func TestPVBandLadderMonotone(t *testing.T) {
	sim := testSim(t)
	_, m := windowMask(t)
	deltas := []float64{0, 0.01, 0.02, 0.04}
	bands, err := PVBandLadder(sim, m, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != len(deltas) {
		t.Fatalf("%d bands", len(bands))
	}
	// Wider dose window ⊇ narrower one, so the band grows monotonically.
	for i := 1; i < len(bands); i++ {
		if bands[i] < bands[i-1] {
			t.Errorf("PVB not monotone in dose delta: %v", bands)
			break
		}
	}
	// delta = 0 still has the focus excursion, so the band need not be 0,
	// but it must be the smallest rung.
	if bands[0] > bands[len(bands)-1] {
		t.Error("zero-delta band exceeds widest band")
	}
}

func TestPVBandLadderValidation(t *testing.T) {
	sim := testSim(t)
	_, m := windowMask(t)
	if _, err := PVBandLadder(sim, m, []float64{-0.1}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := PVBandLadder(sim, m, []float64{1}); err == nil {
		t.Error("delta = 1 accepted")
	}
}

// The paper's PVB (Definition 2) must equal the 0.02 rung of the ladder.
func TestPVBandLadderMatchesDefinition2(t *testing.T) {
	sim := testSim(t)
	_, m := windowMask(t)
	bands, err := PVBandLadder(sim, m, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	zIn, err := sim.Print(m, sim.Inner())
	if err != nil {
		t.Fatal(err)
	}
	zOut, err := sim.Print(m, sim.Outer())
	if err != nil {
		t.Fatal(err)
	}
	if want := PVBand(zIn[0], zOut[0]); bands[0] != want {
		t.Errorf("ladder rung %v != Definition 2 PVB %v", bands[0], want)
	}
}

func TestCDBasics(t *testing.T) {
	z := grid.NewMat(32, 32)
	geom.FillRect(z, geom.Rect{X0: 10, Y0: 8, X1: 22, Y1: 24}, 1)
	cd, err := CD(z, CutLine{Horizontal: true, X: 15, Y: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cd != 12 {
		t.Errorf("horizontal CD %d, want 12", cd)
	}
	cd, err = CD(z, CutLine{Horizontal: false, X: 15, Y: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cd != 16 {
		t.Errorf("vertical CD %d, want 16", cd)
	}
	cd, err = CD(z, CutLine{Horizontal: true, X: 2, Y: 2})
	if err != nil || cd != 0 {
		t.Errorf("unprinted anchor CD %d err %v, want 0", cd, err)
	}
	if _, err := CD(z, CutLine{X: 99, Y: 0}); err == nil {
		t.Error("out-of-bounds anchor accepted")
	}
}

func TestCDThroughDoseMonotone(t *testing.T) {
	sim := testSim(t)
	_, m := windowMask(t)
	cut := CutLine{Horizontal: true, X: 64, Y: 64}
	doses := []float64{0.94, 1.0, 1.06}
	pts, err := CDThroughDose(sim, m, cut, doses)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6 (2 focus × 3 dose)", len(pts))
	}
	// CD grows with dose at fixed focus (brightfield clear feature).
	for f := 0; f < 2; f++ {
		base := f * 3
		if !(pts[base].CDPx <= pts[base+1].CDPx && pts[base+1].CDPx <= pts[base+2].CDPx) {
			t.Errorf("CD not monotone in dose: %+v", pts[base:base+3])
		}
		if pts[base+1].CDPx == 0 {
			t.Error("feature did not print at nominal dose")
		}
	}
	if _, err := CDThroughDose(sim, m, cut, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := CDThroughDose(sim, m, cut, []float64{-1}); err == nil {
		t.Error("negative dose accepted")
	}
}
