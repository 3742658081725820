package core

import (
	"context"
	"testing"

	"repro/internal/mask"
)

// The extension knobs: pluggable binary functions (the cosine of [11]),
// heavy-ball momentum, and the backtracking line search of [12].

func TestCosineBinaryRuns(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	opts := DefaultOptions(sim)
	opts.Binary = mask.Cosine{}
	// The cosine binary maps M′=0 → fully transparent, so seed sensitivity
	// differs; a smaller learning rate keeps it stable (the periodicity
	// that motivated the sigmoid switch in Section III-C).
	opts.LearningRate = 0.2
	o, err := New(opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Mask.Data {
		if v != 0 && v != 1 {
			t.Fatal("cosine-binary final mask is not binary")
		}
	}
}

func TestNilBinaryRejected(t *testing.T) {
	sim := testSim(t)
	opts := DefaultOptions(sim)
	opts.Binary = nil
	if _, err := New(opts, testTarget()); err == nil {
		t.Error("nil binary function accepted")
	}
}

func TestMomentumValidation(t *testing.T) {
	sim := testSim(t)
	for _, mu := range []float64{-0.1, 1.0, 1.5} {
		opts := DefaultOptions(sim)
		opts.Momentum = mu
		if _, err := New(opts, testTarget()); err == nil {
			t.Errorf("momentum %g accepted", mu)
		}
	}
}

func TestMomentumConvergesComparably(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	run := func(mu float64) float64 {
		opts := DefaultOptions(sim)
		opts.Momentum = mu
		o, err := New(opts, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 15}})
		if err != nil {
			t.Fatal(err)
		}
		best := res.History[0].Loss.Total()
		for _, h := range res.History {
			if v := h.Loss.Total(); v < best {
				best = v
			}
		}
		return best
	}
	plain := run(0)
	heavy := run(0.5)
	// Momentum must not blow up: within 2× of plain GD's best loss on this
	// easy problem (usually it is better).
	if heavy > 2*plain {
		t.Errorf("momentum best loss %g vs plain %g", heavy, plain)
	}
}

// TestLineSearchNeverIncreasesLossMuch: with line search on, consecutive
// recorded losses are (near-)monotone even at an aggressive base step where
// plain gradient descent oscillates.
func TestLineSearchStabilizesAggressiveStep(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()

	worstJump := func(lineSearch bool) float64 {
		opts := DefaultOptions(sim)
		opts.LearningRate = 50 // deliberately too large for plain GD
		opts.LineSearch = lineSearch
		o, err := New(opts, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 10}})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := 1; i < len(res.History); i++ {
			if d := res.History[i].Loss.Total() - res.History[i-1].Loss.Total(); d > worst {
				worst = d
			}
		}
		return worst
	}
	plain := worstJump(false)
	searched := worstJump(true)
	if searched > plain {
		t.Errorf("line search worst loss increase %g exceeds plain GD's %g", searched, plain)
	}
}

func TestLineSearchImprovesFinalMask(t *testing.T) {
	sim := testSim(t)
	tgt := testTarget()
	opts := DefaultOptions(sim)
	opts.LineSearch = true
	o, err := New(opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0].Loss.Total()
	last := res.History[len(res.History)-1].Loss.Total()
	if last >= first {
		t.Errorf("line-search run did not improve: first %g last %g", first, last)
	}
}
