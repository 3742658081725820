package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/metrics"
)

func randPenaltyMat(seed int64, w, h int) *grid.Mat {
	rng := rand.New(rand.NewSource(seed))
	m := grid.NewMat(w, h)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestTVPenaltyValueOnKnownPatterns(t *testing.T) {
	p := TVPenalty{Lambda: 1}
	flat := grid.NewMat(4, 4)
	flat.Fill(0.7)
	if v, _ := p.Eval(flat); v != 0 {
		t.Errorf("TV of constant image = %v, want 0", v)
	}
	// A single vertical step of height 1 across a 4x4 image: 4 horizontal
	// unit differences.
	step := grid.NewMat(4, 4)
	for y := 0; y < 4; y++ {
		step.Set(2, y, 1)
		step.Set(3, y, 1)
	}
	if v, _ := p.Eval(step); v != 4 {
		t.Errorf("TV of step = %v, want 4", v)
	}
}

func penaltyGradCheck(t *testing.T, p Penalty, seed int64) {
	t.Helper()
	m := randPenaltyMat(seed, 6, 5)
	_, g := p.Eval(m)
	const eps = 1e-6
	rng := rand.New(rand.NewSource(seed + 1))
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(len(m.Data))
		orig := m.Data[i]
		m.Data[i] = orig + eps
		vp, _ := p.Eval(m)
		m.Data[i] = orig - eps
		vm, _ := p.Eval(m)
		m.Data[i] = orig
		fd := (vp - vm) / (2 * eps)
		if math.Abs(fd-g.Data[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("%s grad[%d]: analytic %g fd %g", p.Name(), i, g.Data[i], fd)
		}
	}
}

func TestTVPenaltyGradient(t *testing.T) {
	penaltyGradCheck(t, TVPenalty{Lambda: 0.7}, 11)
}

func TestCurvaturePenaltyGradient(t *testing.T) {
	penaltyGradCheck(t, CurvaturePenalty{Lambda: 0.3}, 12)
}

func TestCurvaturePenaltyPrefersStraightEdges(t *testing.T) {
	p := CurvaturePenalty{Lambda: 1}
	straight := grid.NewMat(12, 12)
	for y := 0; y < 12; y++ {
		for x := 0; x < 6; x++ {
			straight.Set(x, y, 1)
		}
	}
	jagged := straight.Clone()
	for y := 0; y < 12; y += 2 {
		jagged.Set(6, y, 1) // saw-tooth the edge
	}
	vs, _ := p.Eval(straight)
	vj, _ := p.Eval(jagged)
	if vj <= vs {
		t.Errorf("curvature penalty: jagged %v not above straight %v", vj, vs)
	}
}

// TestStepGradientWithPenalties re-runs the end-to-end finite-difference
// check with both penalties active — the full chain including regularizer
// gradients must stay consistent.
func TestStepGradientWithPenalties(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	opts := DefaultOptions(sim)
	opts.Penalties = []Penalty{TVPenalty{Lambda: 0.05}, CurvaturePenalty{Lambda: 0.01}}
	o, err := New(opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	st := Stage{Scale: 4, Iters: 1}
	ztS := grid.AvgPoolDown(tgt, st.Scale)
	mp := grid.AvgPoolDown(tgt, st.Scale)
	rng := rand.New(rand.NewSource(13))
	for i := range mp.Data {
		mp.Data[i] += 0.3 * rng.NormFloat64()
	}
	terms, g, err := o.step(mp, st, ztS, true)
	if err != nil {
		t.Fatal(err)
	}
	if terms.Penalty <= 0 {
		t.Error("penalty value not recorded in loss terms")
	}
	const eps = 1e-5
	for trial := 0; trial < 5; trial++ {
		i := rng.Intn(len(mp.Data))
		orig := mp.Data[i]
		mp.Data[i] = orig + eps
		tp, _, err := o.step(mp, st, ztS, false)
		if err != nil {
			t.Fatal(err)
		}
		mp.Data[i] = orig - eps
		tm, _, err := o.step(mp, st, ztS, false)
		if err != nil {
			t.Fatal(err)
		}
		mp.Data[i] = orig
		fd := (tp.Total() - tm.Total()) / (2 * eps)
		if math.Abs(fd-g.Data[i]) > 5e-4*(1+math.Abs(fd)) {
			t.Errorf("penalized dL/dM'[%d]: analytic %g fd %g", i, g.Data[i], fd)
		}
	}
}

// TestTVPenaltyReducesShots: the complexity regularizer must deliver the
// effect [4] uses it for — simpler masks — at modest quality cost.
func TestTVPenaltyReducesShots(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()

	run := func(lambda float64) metrics.Report {
		opts := DefaultOptions(sim)
		opts.SmoothWindow = 0 // isolate the penalty's effect
		if lambda > 0 {
			opts.Penalties = []Penalty{TVPenalty{Lambda: lambda}}
		}
		o, err := New(opts, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 25}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := metrics.Evaluate(sim, res.Mask, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(0)
	regularized := run(0.5)
	if regularized.Shots > plain.Shots {
		t.Errorf("TV penalty increased shots: %d vs %d", regularized.Shots, plain.Shots)
	}
}
