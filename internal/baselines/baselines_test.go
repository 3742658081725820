package baselines

import (
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/metrics"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

var (
	simOnce   sync.Once
	sharedSim *litho.Sim
)

func testSim(t testing.TB) *litho.Sim {
	t.Helper()
	simOnce.Do(func() {
		m, err := optics.BuildModel(optics.TestScale())
		if err != nil {
			panic(err)
		}
		sharedSim = litho.NewSim(m)
	})
	return sharedSim
}

func testTarget() *grid.Mat {
	tgt := grid.NewMat(128, 128)
	geom.FillRect(tgt, geom.Rect{X0: 32, Y0: 40, X1: 88, Y1: 56}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 32, Y0: 72, X1: 88, Y1: 88}, 1)
	return tgt
}

func TestPixelILTImprovesOverRawMask(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	res, err := PixelILT(sim, tgt, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := metrics.Evaluate(sim, tgt, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := metrics.Evaluate(sim, res.Mask, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.L2 >= raw.L2 {
		t.Errorf("pixel ILT did not improve L2: raw %v optimized %v", raw.L2, opt.L2)
	}
}

func TestAttentionMapValues(t *testing.T) {
	tgt := grid.NewMat(32, 32)
	geom.FillRect(tgt, geom.Rect{X0: 10, Y0: 10, X1: 20, Y1: 20}, 1)
	a := AttentionMap(tgt, 2, 1.5)
	if a.At(15, 15) != 1 {
		t.Errorf("deep interior attention %v, want 1", a.At(15, 15))
	}
	if a.At(2, 2) != 1 {
		t.Errorf("far field attention %v, want 1", a.At(2, 2))
	}
	if a.At(10, 15) != 2.5 {
		t.Errorf("boundary attention %v, want 2.5", a.At(10, 15))
	}
}

func TestAttentionILTRuns(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	res, err := AttentionILT(sim, tgt, 15, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 15 {
		t.Fatalf("ran %d iterations", res.Iterations)
	}
	raw, err := metrics.Evaluate(sim, tgt, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := metrics.Evaluate(sim, res.Mask, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.L2 >= raw.L2 {
		t.Errorf("attention ILT did not improve L2: raw %v optimized %v", raw.L2, opt.L2)
	}
}

func TestLevelSetILTImprovesAndPreservesTopologyLimits(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	res, err := LevelSetILT(LevelSetOptions{Sim: sim, Iters: 25}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 25 || res.ILTSeconds <= 0 {
		t.Fatalf("result bookkeeping: %d iters, %gs", res.Iterations, res.ILTSeconds)
	}
	first := res.History[0].Total()
	best := first
	for _, h := range res.History {
		if h.Total() < best {
			best = h.Total()
		}
	}
	if best >= first {
		t.Errorf("level-set loss never improved: first %g best %g", first, best)
	}

	raw, err := metrics.Evaluate(sim, tgt, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := metrics.Evaluate(sim, res.Mask, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.L2 >= raw.L2 {
		t.Errorf("level-set ILT did not improve L2: raw %v optimized %v", raw.L2, opt.L2)
	}

	// Structural property: no SRAFs far from the main features (the level
	// set deforms boundaries but does not nucleate new shapes).
	far := geom.DilateBox(tgt, 16)
	for i := range res.Mask.Data {
		if far.Data[i] < 0.5 && res.Mask.Data[i] == 1 {
			t.Fatal("level-set baseline nucleated an SRAF — not expected of this parametrisation")
		}
	}
}

func TestLevelSetValidation(t *testing.T) {
	sim := testSim(t)
	if _, err := LevelSetILT(LevelSetOptions{Sim: nil, Iters: 1}, testTarget()); err == nil {
		t.Error("missing simulator accepted")
	}
	if _, err := LevelSetILT(LevelSetOptions{Sim: sim, Iters: -1}, testTarget()); err == nil {
		t.Error("negative iters accepted")
	}
	if _, err := LevelSetILT(LevelSetOptions{Sim: sim, Iters: 1}, grid.NewMat(96, 96)); err == nil {
		t.Error("non-power-of-two target accepted")
	}
}

func TestLevelSetRegionRespected(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	region := geom.DilateBox(tgt, 10)
	workers, engine, simRec := sim.Workers, sim.Engine, sim.Recorder
	res, err := LevelSetILT(LevelSetOptions{Sim: sim, Iters: 10, Region: region, Recorder: telemetry.New()}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// The iteration events' recorder is not the shared simulator's.
	if sim.Workers != workers || sim.Engine != engine || sim.Recorder != simRec {
		t.Errorf("LevelSetILT changed the shared simulator: workers %d, engine %v, recorder %p; want %d, %v, %p",
			sim.Workers, sim.Engine, sim.Recorder, workers, engine, simRec)
	}
	for i, r := range region.Data {
		if r < 0.5 && res.Mask.Data[i] != 0 {
			t.Fatal("level-set mask escaped the region")
		}
	}
}

func TestMaskFromPhiHeavisideShape(t *testing.T) {
	phi := grid.FromSlice(5, 1, []float64{-10, -1.5, 0, 1.5, 10})
	m := maskFromPhi(phi, 1.5)
	if m.Data[0] != 1 || m.Data[4] != 0 {
		t.Errorf("H_ε saturation wrong: %v", m.Data)
	}
	if m.Data[2] != 0.5 {
		t.Errorf("H_ε(0) = %v, want 0.5", m.Data[2])
	}
	if !(m.Data[0] >= m.Data[1] && m.Data[1] >= m.Data[2] && m.Data[2] >= m.Data[3] && m.Data[3] >= m.Data[4]) {
		t.Error("H_ε not monotone in −φ")
	}
}

func TestDeltaEpsIntegratesToOne(t *testing.T) {
	// ∫δ_ε = 1 (Riemann sum over a fine grid).
	const eps = 1.5
	sum := 0.0
	const dx = 1e-3
	for x := -2 * eps; x <= 2*eps; x += dx {
		sum += deltaEps(x, eps) * dx
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("∫δ_ε = %v, want ≈1", sum)
	}
}
