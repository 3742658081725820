// Package repro's benchmark suite regenerates every table and figure of the
// paper at BenchScale (256-px grid, 1024 nm field, quarter budgets) and
// prints each regenerated table once, so `go test -bench . -benchmem`
// doubles as the reproduction harness:
//
//	BenchmarkTableI..IV     — Tables I–IV
//	BenchmarkFig1..Fig8     — the figure experiments
//	BenchmarkForwardEq3/7/8 — the §III-B forward-simulation comparison
//	BenchmarkIterLow/High/Full — per-iteration ILT cost (the 18× claim)
//
// Absolute times are CPU-bound; the paper's *relative* orderings are what
// these benchmarks demonstrate.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/report"
)

var printOnce sync.Map

// runExperiment executes one named experiment per benchmark iteration and
// prints its table the first time.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.BenchScale()
	var tb *report.Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(cfg, name)
		if err != nil {
			b.Fatal(err)
		}
		tb = t
	}
	if _, dup := printOnce.LoadOrStore(name, true); !dup && tb != nil {
		fmt.Printf("\n%s\n", tb.String())
	}
}

// Tables.

func BenchmarkTableI(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)  { runExperiment(b, "table4") }

// Figures.

func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// In-text experiments (as tables).

func BenchmarkForwardTimingTable(b *testing.B) { runExperiment(b, "timing") }
func BenchmarkIterationTimeTable(b *testing.B) { runExperiment(b, "itertime") }

// benchState caches the simulator and case shared by the microbenchmarks.
type benchState struct {
	cfg    experiments.Config
	sim    *litho.Sim
	target *grid.Mat
	pooled *grid.Mat
}

var (
	stateOnce sync.Once
	state     *benchState
	stateErr  error
)

func getState(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		cfg := experiments.BenchScale()
		sim, err := cfg.Sim()
		if err != nil {
			stateErr = err
			return
		}
		cs, err := bench.PaperCase(cfg.N, cfg.FieldNM, 1)
		if err != nil {
			stateErr = err
			return
		}
		state = &benchState{cfg: cfg, sim: sim, target: cs.Target, pooled: grid.AvgPoolDown(cs.Target, 4)}
	})
	if stateErr != nil {
		b.Fatal(stateErr)
	}
	return state
}

// Forward-model microbenchmarks: one simulation per iteration (§III-B —
// the paper's 200-simulation timing divides out directly).

func BenchmarkForwardEq3(b *testing.B) {
	s := getState(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.sim.Forward(s.target, s.sim.Model.Nominal, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardEq7(b *testing.B) {
	s := getState(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.sim.ForwardEq7(s.target, 4, s.sim.Model.Nominal, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardEq8(b *testing.B) {
	s := getState(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.sim.Forward(s.pooled, s.sim.Model.Nominal, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-iteration ILT cost: one optimizer iteration per benchmark iteration.

func benchIteration(b *testing.B, stage core.Stage) {
	b.Helper()
	s := getState(b)
	opts := core.DefaultOptions(s.sim)
	o, err := core.New(opts, s.target)
	if err != nil {
		b.Fatal(err)
	}
	stage.Iters = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Run(context.Background(), []core.Stage{stage}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterLowRes(b *testing.B)  { benchIteration(b, core.Stage{Scale: 4}) }
func BenchmarkIterHighRes(b *testing.B) { benchIteration(b, core.Stage{Scale: 4, HighRes: true}) }
func BenchmarkIterFullRes(b *testing.B) { benchIteration(b, core.Stage{Scale: 1}) }

// End-to-end recipes on one case (the TAT columns of Tables II/III).

func benchRecipe(b *testing.B, stages []core.Stage) {
	b.Helper()
	s := getState(b)
	scaled := core.ScaleStages(stages, s.cfg.IterDiv)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(s.sim)
		o, err := core.New(opts, s.target)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Run(context.Background(), scaled); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecipeFast(b *testing.B)  { benchRecipe(b, core.FastM1()) }
func BenchmarkRecipeExact(b *testing.B) { benchRecipe(b, core.ExactM1()) }

// Extension experiments (process window, schedule ablation).

func BenchmarkWindowTable(b *testing.B)      { runExperiment(b, "window") }
func BenchmarkConvergenceTable(b *testing.B) { runExperiment(b, "convergence") }

func BenchmarkViaSweepTable(b *testing.B) { runExperiment(b, "viasweep") }

func BenchmarkVerifyClaims(b *testing.B) { runExperiment(b, "verify") }

func BenchmarkSourcesTable(b *testing.B) { runExperiment(b, "sources") }

func BenchmarkBossungTable(b *testing.B) { runExperiment(b, "bossung") }
func BenchmarkKernelsTable(b *testing.B) { runExperiment(b, "kernels") }
