package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/optics"
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

// testTarget builds a 128×128 target with two bars — small enough for fast
// tests, large enough to print.
func testTarget() *grid.Mat {
	tgt := grid.NewMat(128, 128)
	geom.FillRect(tgt, geom.Rect{X0: 32, Y0: 40, X1: 88, Y1: 56}, 1)
	geom.FillRect(tgt, geom.Rect{X0: 32, Y0: 72, X1: 88, Y1: 88}, 1)
	return tgt
}

func TestLossTermsAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	zi, zo, zt := grid.NewMat(n, n), grid.NewMat(n, n), grid.NewMat(n, n)
	for i := 0; i < n*n; i++ {
		zi.Data[i] = rng.Float64()
		zo.Data[i] = rng.Float64()
		zt.Data[i] = float64(rng.Intn(2))
	}
	terms, gIn, gOut := Loss(zi, zo, zt)
	if terms.Total() != terms.L2+terms.PVB {
		t.Error("Total != L2+PVB")
	}

	eval := func() float64 {
		tm, _, _ := Loss(zi, zo, zt)
		return tm.Total()
	}
	const eps = 1e-6
	for trial := 0; trial < 5; trial++ {
		i := rng.Intn(n * n)
		// dL/dZ_in
		orig := zi.Data[i]
		zi.Data[i] = orig + eps
		lp := eval()
		zi.Data[i] = orig - eps
		lm := eval()
		zi.Data[i] = orig
		if fd := (lp - lm) / (2 * eps); math.Abs(fd-gIn.Data[i]) > 1e-6*(1+math.Abs(fd)) {
			t.Errorf("dL/dZin[%d]: analytic %g fd %g", i, gIn.Data[i], fd)
		}
		// dL/dZ_out
		orig = zo.Data[i]
		zo.Data[i] = orig + eps
		lp = eval()
		zo.Data[i] = orig - eps
		lm = eval()
		zo.Data[i] = orig
		if fd := (lp - lm) / (2 * eps); math.Abs(fd-gOut.Data[i]) > 1e-6*(1+math.Abs(fd)) {
			t.Errorf("dL/dZout[%d]: analytic %g fd %g", i, gOut.Data[i], fd)
		}
	}
}

func TestLossShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("loss shape mismatch did not panic")
		}
	}()
	Loss(grid.NewMat(4, 4), grid.NewMat(4, 4), grid.NewMat(8, 8))
}

// stepLoss evaluates the stage loss for finite-difference checking.
func stepLoss(t *testing.T, o *Optimizer, mp *grid.Mat, st Stage, ztS *grid.Mat) float64 {
	t.Helper()
	terms, _, err := o.step(mp, st, ztS, false)
	if err != nil {
		t.Fatal(err)
	}
	return terms.Total()
}

// TestStepGradientFiniteDifference validates the complete Algorithm 1
// gradient chain (binary function → smoothing pool → Hopkins → sigmoid
// resist → pooled loss) against finite differences for both branches.
func TestStepGradientFiniteDifference(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	for _, tc := range []struct {
		name string
		st   Stage
	}{
		{"lowres-s4", Stage{Scale: 4, Iters: 1}},
		{"highres-s8", Stage{Scale: 8, Iters: 1, HighRes: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(sim)
			o, err := New(opts, tgt)
			if err != nil {
				t.Fatal(err)
			}
			ztS := grid.AvgPoolDown(tgt, tc.st.Scale)
			mp := grid.AvgPoolDown(tgt, tc.st.Scale)
			// Perturb away from the flat init so gradients are generic.
			rng := rand.New(rand.NewSource(2))
			for i := range mp.Data {
				mp.Data[i] += 0.3 * rng.NormFloat64()
			}
			_, g, err := o.step(mp, tc.st, ztS, true)
			if err != nil {
				t.Fatal(err)
			}
			const eps = 1e-5
			for trial := 0; trial < 5; trial++ {
				i := rng.Intn(len(mp.Data))
				orig := mp.Data[i]
				mp.Data[i] = orig + eps
				lp := stepLoss(t, o, mp, tc.st, ztS)
				mp.Data[i] = orig - eps
				lm := stepLoss(t, o, mp, tc.st, ztS)
				mp.Data[i] = orig
				fd := (lp - lm) / (2 * eps)
				if math.Abs(fd-g.Data[i]) > 2e-4*(1+math.Abs(fd)) {
					t.Errorf("%s dL/dM'[%d]: analytic %g fd %g", tc.name, i, g.Data[i], fd)
				}
			}
		})
	}
}

func TestRunImprovesLoss(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	o, err := New(DefaultOptions(sim), tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 || res.Iterations != 12 {
		t.Fatalf("history %d, iterations %d", len(res.History), res.Iterations)
	}
	first := res.History[0].Loss.Total()
	best := first
	for _, h := range res.History {
		if h.Loss.Total() < best {
			best = h.Loss.Total()
		}
	}
	if best >= first {
		t.Errorf("loss never improved: first %g best %g", first, best)
	}
}

func TestRunMultiLevelEndToEnd(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	o, err := New(DefaultOptions(sim), tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{
		{Scale: 4, Iters: 15},
		{Scale: 8, Iters: 3, HighRes: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask.W != 128 || res.Params.W != 128 {
		t.Fatalf("final sizes mask %d params %d, want 128", res.Mask.W, res.Params.W)
	}
	for _, v := range res.Mask.Data {
		if v != 0 && v != 1 {
			t.Fatal("final mask is not binary")
		}
	}
	if res.ILTSeconds <= 0 {
		t.Error("ILT time not recorded")
	}

	// The optimized mask must beat the raw target mask on the contest L2.
	rawRep, err := metrics.Evaluate(sim, tgt, tgt)
	if err != nil {
		t.Fatal(err)
	}
	optRep, err := metrics.Evaluate(sim, res.Mask, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if optRep.L2 >= rawRep.L2 {
		t.Errorf("ILT did not improve L2: raw %v optimized %v", rawRep.L2, optRep.L2)
	}
}

func TestEarlyStoppingTerminates(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	opts := DefaultOptions(sim)
	opts.Patience = 3
	// An absurd learning rate guarantees the loss stops improving quickly.
	opts.LearningRate = 1e4
	o, err := New(opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 200 {
		t.Errorf("early stopping did not trigger: ran %d iterations", res.Iterations)
	}
}

func TestRegionConstraintRespected(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	region, err := mask.Region(tgt, mask.Option1, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sim)
	opts.Region = region
	o, err := New(opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range region.Data {
		if r < 0.5 && res.Mask.Data[i] != 0 {
			t.Fatal("mask opened a pixel outside the optimizing region")
		}
	}
}

// TestImprovedBinaryFunctionProducesSRAFs reproduces the mechanism behind
// Fig. 4: after the same low-resolution iteration budget, the T_R = 0.5
// binary function opens assist features away from the main pattern while
// T_R = 0 keeps the far field opaque.
func TestImprovedBinaryFunctionProducesSRAFs(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	// "Far" region: more than 12 px from any feature.
	far := geom.DilateBox(tgt, 12)

	srafArea := func(tr float64) float64 {
		opts := DefaultOptions(sim)
		opts.Binary = mask.Sigmoid{Beta: mask.DefaultBeta, TR: tr}
		if tr == 0 {
			// Conventional ILT also outputs with the same T_R.
			opts.OutputTR = 0
		}
		o, err := New(opts, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 40}})
		if err != nil {
			t.Fatal(err)
		}
		var area float64
		for i := range res.Mask.Data {
			if far.Data[i] < 0.5 && res.Mask.Data[i] == 1 {
				area++
			}
		}
		return area
	}

	withImproved := srafArea(0.5)
	conventional := srafArea(0)
	if withImproved <= conventional {
		t.Errorf("T_R=0.5 SRAF area %v not larger than T_R=0 area %v", withImproved, conventional)
	}
	if withImproved == 0 {
		t.Error("improved binary function produced no SRAFs at all")
	}
}

func TestResampleParams(t *testing.T) {
	m := grid.NewMat(4, 4)
	m.Fill(0.5)
	up, err := resampleParams(m, 8, 4)
	if err != nil || up.W != 8 {
		t.Fatalf("refine: %v, size %d", err, up.W)
	}
	down, err := resampleParams(m, 4, 8)
	if err != nil || down.W != 2 {
		t.Fatalf("coarsen: %v, size %d", err, down.W)
	}
	same, err := resampleParams(m, 4, 4)
	if err != nil || same != m {
		t.Fatal("same-scale resample should be a no-op")
	}
	if _, err := resampleParams(m, 6, 4); err == nil {
		t.Error("non-integer refinement ratio accepted")
	}
}

func TestNewValidation(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	good := DefaultOptions(sim)

	if _, err := New(Options{}, tgt); err == nil {
		t.Error("missing process accepted")
	}
	if _, err := New(good, grid.NewMat(128, 64)); err == nil {
		t.Error("non-square target accepted")
	}
	if _, err := New(good, grid.NewMat(96, 96)); err == nil {
		t.Error("non-power-of-two target accepted")
	}
	bad := good
	bad.LearningRate = 0
	if _, err := New(bad, tgt); err == nil {
		t.Error("zero learning rate accepted")
	}
	bad = good
	bad.SmoothWindow = 4
	if _, err := New(bad, tgt); err == nil {
		t.Error("even smoothing window accepted")
	}
	bad = good
	bad.Region = grid.NewMat(64, 64)
	if _, err := New(bad, tgt); err == nil {
		t.Error("mismatched region accepted")
	}
}

func TestStageValidation(t *testing.T) {
	sim := testSim(t)
	o, err := New(DefaultOptions(sim), testTarget())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stage{
		{Scale: 0, Iters: 1},
		{Scale: 3, Iters: 1},  // 128/3 not integral
		{Scale: 32, Iters: 1}, // working size 4 < kernel support
		{Scale: 4, Iters: -1},
	} {
		if _, err := o.Run(context.Background(), []Stage{st}); err == nil {
			t.Errorf("invalid stage %+v accepted", st)
		}
	}
	if _, err := o.Run(context.Background(), nil); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestRecipesShape(t *testing.T) {
	fast, exact, via := FastM1(), ExactM1(), Via()
	if len(fast) != 2 || fast[0].Scale != 4 || fast[0].Iters != 35 || !fast[1].HighRes || fast[1].Scale != 8 {
		t.Errorf("FastM1 = %+v", fast)
	}
	if len(exact) != 2 || exact[0].Iters != 80 || exact[1].Iters != 10 {
		t.Errorf("ExactM1 = %+v", exact)
	}
	if len(via) != 4 || via[0].Scale != 8 || via[2].Scale != 2 || !via[3].HighRes {
		t.Errorf("Via = %+v", via)
	}
}

func TestScaleStages(t *testing.T) {
	scaled := ScaleStages(ExactM1(), 10)
	if scaled[0].Iters != 8 || scaled[1].Iters != 1 {
		t.Errorf("ScaleStages = %+v", scaled)
	}
	if got := ScaleStages(ExactM1(), 1); got[0].Iters != 80 {
		t.Error("div=1 must not change budgets")
	}
}

// TestSmoothingPoolTradeoff reproduces the Fig. 6 mechanism: disabling the
// smoothing pool yields a mask with at least as many shots (more ragged
// contours) at comparable loss.
func TestSmoothingPoolTradeoff(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()

	run := func(window int) (*Result, metrics.Report) {
		opts := DefaultOptions(sim)
		opts.SmoothWindow = window
		o, err := New(opts, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 30}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := metrics.Evaluate(sim, res.Mask, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	_, withPool := run(3)
	_, noPool := run(0)
	if withPool.Shots > noPool.Shots {
		t.Errorf("smoothing pool increased shots: with %d, without %d", withPool.Shots, noPool.Shots)
	}
}
