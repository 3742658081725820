package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/telemetry"
	"repro/internal/tracestat"
)

type eventSink struct{ events []telemetry.Event }

func (s *eventSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }
func (s *eventSink) Flush() error           { return nil }

// The optimizer streams one stage.start / iter* / stage.end bracket per
// stage, and the iter payload carries the loss decomposition the console and
// trace sinks render. IterRecord mirrors the same data for library callers.
func TestRunStageEmitsIterationEvents(t *testing.T) {
	sim := testSim(t)
	sink := &eventSink{}
	rec := telemetry.New(telemetry.WithSink(sink))
	opts := DefaultOptions(sim)
	opts.Recorder = rec
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	stages := []Stage{{Scale: 4, Iters: 3}, {Scale: 4, HighRes: true, Iters: 2}}
	res, err := o.Run(context.Background(), stages)
	if err != nil {
		t.Fatal(err)
	}

	iters := map[int]int{}
	var order []string
	for _, e := range sink.events {
		order = append(order, e.Name)
		switch e.Name {
		case "stage.start":
			if _, ok := e.Fields["scale"]; !ok {
				t.Errorf("stage.start missing scale: %v", e.Fields)
			}
		case "iter":
			st, _ := e.Fields["stage"].(int)
			iters[st]++
			for _, k := range []string{"iter", "loss", "l2", "pvb", "step", "retries", "sec"} {
				if _, ok := e.Fields[k]; !ok {
					t.Fatalf("iter event missing %q: %v", k, e.Fields)
				}
			}
		}
	}
	want := []string{"stage.start", "iter", "iter", "iter", "stage.end",
		"stage.start", "iter", "iter", "stage.end"}
	if len(order) != len(want) {
		t.Fatalf("event order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order %v, want %v", order, want)
		}
	}
	if iters[0] != 3 || iters[1] != 2 {
		t.Errorf("per-stage iter counts %v, want 3 and 2", iters)
	}
	if len(res.History) != 5 {
		t.Fatalf("history has %d records, want 5", len(res.History))
	}
	for i, h := range res.History {
		if h.Seconds <= 0 {
			t.Errorf("history[%d] missing per-iteration wall time", i)
		}
		if i < 3 && (h.Stage != 0 || h.Scale != 4 || h.HighRes) {
			t.Errorf("history[%d] = %+v, want stage 0 s=4 low-res", i, h)
		}
		if i >= 3 && (h.Stage != 1 || !h.HighRes) {
			t.Errorf("history[%d] = %+v, want stage 1 high-res", i, h)
		}
	}
}

// A nil recorder must leave Run behaviour identical (same history shape, no
// events, no panics) — the disabled default for every existing caller.
func TestRunWithoutRecorder(t *testing.T) {
	sim := testSim(t)
	opts := DefaultOptions(sim)
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history %d, want 2", len(res.History))
	}
}

// The simulator is configured on Options.Sim alone: New and Run leave its
// worker count, FFT engine and recorder as they found them, even when the
// options carry a recorder of their own.
func TestOptionsLeaveSimulatorAlone(t *testing.T) {
	sim := litho.NewSim(testSim(t).Model)
	sim.Workers = 3
	opts := DefaultOptions(sim)
	opts.Recorder = telemetry.New()
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 1}, {Scale: 4, HighRes: true, Iters: 1}}); err != nil {
		t.Fatal(err)
	}
	if sim.Workers != 3 || sim.Engine != litho.EngineBatch || sim.Recorder != nil {
		t.Errorf("simulator changed: workers %d, engine %v, recorder %p; want 3, batch, nil",
			sim.Workers, sim.Engine, sim.Recorder)
	}
}

// The optimizer's own work between simulator calls is timed in five core
// phases, so that with litho's phases they partition an ILT run. One
// low-resolution and one high-resolution iteration (with the smoothing pool
// and a penalty) open each phase a fixed number of times, and leave the
// simulator's phase counts as they were before the core phases existed.
func TestCorePhaseCounts(t *testing.T) {
	sim := litho.NewSim(testSim(t).Model)
	rec := telemetry.New()
	sim.Recorder = rec
	opts := DefaultOptions(sim)
	opts.Recorder = rec
	opts.Penalties = []Penalty{TVPenalty{Lambda: 1e-3}}
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 1}, {Scale: 4, HighRes: true, Iters: 1}}); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, ph := range rec.Phases() {
		got[ph.Name] = ph.Count
	}
	want := map[string]int64{
		// Per iteration: f_binary and its gradient product; plus the final
		// output.
		"core.binarize": 5,
		// The seed pool, each stage's parameter resampling and target pool,
		// per iteration the smoothing pool or upsample and its adjoint, and
		// the final upsample.
		"core.resample": 10,
		// Per iteration: the resist and Eq. 5 pass, each corner's resist
		// gradient, and the corner sum.
		"core.loss":    8,
		"core.penalty": 2,
		// Each stage's best-copy allocation; per iteration the step and the
		// best copy.
		"core.update":       6,
		"litho.fft_forward": 2,
		"litho.socs":        4,
		"litho.fft_inverse": 4,
		"litho.adjoint":     4,
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s opened %d times, want %d", name, got[name], n)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected phase %s (%d calls)", name, got[name])
		}
	}
}

// nanPenalty is a penalty whose value is NaN: it poisons every loss it is
// added to while leaving the gradient finite.
type nanPenalty struct{}

func (nanPenalty) Name() string { return "nan" }
func (nanPenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	return math.NaN(), grid.NewMat(m.W, m.H)
}

// A non-finite loss or gradient stops the run: Run returns an error
// wrapping ErrNonFinite, core.nonfinite counts the hit, and the trace
// carries iter.nonfinite followed by the stage.end that closes the stage,
// so the trace still validates — whether the hit comes at a stage's first
// iteration or later, with and without line search.
func TestRunStopsOnNonFinite(t *testing.T) {
	sim := testSim(t)
	for _, tc := range []struct {
		name       string
		lineSearch bool
		nanAt      int  // iteration whose gradient GradHook poisons; -1: none
		nanLoss    bool // a NaN penalty poisons the loss instead
		what       string
		wantIters  int // iter events before the hit
	}{
		{"gradient", false, 1, false, "gradient", 1},
		{"gradient-first-iter", false, 0, false, "gradient", 0},
		{"gradient-linesearch", true, 1, false, "gradient", 1},
		{"loss", false, -1, true, "loss", 0},
	} {
		var trace bytes.Buffer
		sink := &eventSink{}
		rec := telemetry.New(telemetry.WithSink(sink), telemetry.WithTrace(&trace))
		opts := DefaultOptions(sim)
		opts.Recorder = rec
		opts.LineSearch = tc.lineSearch
		calls := 0
		opts.GradHook = func(g *grid.Mat, _ Stage) {
			if calls == tc.nanAt {
				g.Data[len(g.Data)/2] = math.NaN()
			}
			calls++
		}
		if tc.nanLoss {
			opts.Penalties = []Penalty{nanPenalty{}}
		}
		o, err := New(opts, testTarget())
		if err != nil {
			t.Fatal(err)
		}
		_, err = o.Run(context.Background(), []Stage{{Scale: 4, Iters: 4}, {Scale: 4, HighRes: true, Iters: 2}})
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: Run returned %v, want an error wrapping ErrNonFinite", tc.name, err)
		}
		var order []string
		for _, e := range sink.events {
			order = append(order, e.Name)
			if e.Name == "iter.nonfinite" && (e.Fields["what"] != tc.what || e.Fields["iter"] != tc.wantIters) {
				t.Errorf("%s: iter.nonfinite fields %v, want what=%s iter=%d", tc.name, e.Fields, tc.what, tc.wantIters)
			}
		}
		want := []string{"stage.start"}
		for i := 0; i < tc.wantIters; i++ {
			want = append(want, "iter")
		}
		want = append(want, "iter.nonfinite", "stage.end")
		if strings.Join(order, " ") != strings.Join(want, " ") {
			t.Errorf("%s: events %v, want %v", tc.name, order, want)
		}
		if got := rec.Counters()["core.nonfinite"]; got != 1 {
			t.Errorf("%s: core.nonfinite = %d, want 1", tc.name, got)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tracestat.Read(&trace); err != nil {
			t.Errorf("%s: trace fails the reader's checks: %v", tc.name, err)
		}
	}
}

// lineSearchStep never commits a non-finite candidate: a NaN loss counts
// as no decrease, and when the last try is NaN too, the parameters are left
// unchanged and the committed step is 0.
func TestLineSearchSkipsNonFiniteCandidates(t *testing.T) {
	opts := DefaultOptions(testSim(t))
	opts.LineSearch = true
	opts.Penalties = []Penalty{nanPenalty{}}
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	st := Stage{Scale: 4, Iters: 1}
	ztS := grid.AvgPoolDown(o.target, st.Scale)
	mp := ztS.Clone()
	before := mp.Clone()
	g := grid.NewMat(mp.W, mp.H)
	g.Fill(0.1)
	step, retries, err := o.lineSearchStep(context.Background(), mp, g, st, ztS, math.MaxFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if step != 0 || retries != 4 {
		t.Errorf("step %g after %d retries, want 0 after 4", step, retries)
	}
	if !mp.Equal(before, 0) {
		t.Error("a non-finite candidate was committed")
	}
}
