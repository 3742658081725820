package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/grid"
)

// A context cancelled before Run starts must stop the optimizer before the
// first simulation: no iterations recorded, the context's error surfaced.
func TestRunPreCancelledContext(t *testing.T) {
	sim := testSim(t)
	o, err := New(DefaultOptions(sim), testTarget())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := o.Run(ctx, []Stage{{Scale: 4, Iters: 10}})
	if res != nil {
		t.Fatalf("cancelled run returned a result with %d iterations", res.Iterations)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancelling mid-run stops after the in-flight iteration completes: the
// GradHook fires once per iteration, so cancelling inside it on call k
// bounds the executed iterations to exactly k.
func TestRunCancelMidStage(t *testing.T) {
	sim := testSim(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions(sim)
	calls := 0
	const cancelAt = 3
	opts.GradHook = func(_ *grid.Mat, _ Stage) {
		calls++
		if calls == cancelAt {
			cancel()
		}
	}
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(ctx, []Stage{{Scale: 4, Iters: 50}})
	if res != nil {
		t.Fatalf("cancelled run returned a result after %d iterations", res.Iterations)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != cancelAt {
		t.Fatalf("ran %d iterations after cancellation at %d, want no more", calls, cancelAt)
	}
}

// Cancellation inside the line-search retry loop must also exit promptly —
// the retry path is where an iteration spends most of its simulations.
func TestRunCancelDuringLineSearch(t *testing.T) {
	sim := testSim(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions(sim)
	opts.LineSearch = true
	opts.GradHook = func(_ *grid.Mat, _ Stage) { cancel() } // before the search runs
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.Run(ctx, []Stage{{Scale: 4, Iters: 50}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
