package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// cost is one measured run: its wall time in seconds and the transform
// butterflies the simulator counted during it, the inverse ones and all
// of them (forward + inverse + adjoint), which repeat exactly on any host.
type cost struct {
	wall           float64
	inverse, total int64
}

// butterflies returns a reader of sim's inverse and total butterfly
// counters, installing a recorder on a sim without one for the counters
// alone.
func butterflies(sim *litho.Sim) func() (inverse, total int64) {
	if sim.Recorder == nil {
		sim.Recorder = telemetry.New()
	}
	rec := sim.Recorder
	return func() (int64, int64) {
		n := rec.Counters()
		inv := n["litho.fft_inverse_butterflies"]
		return inv, n["litho.fft_forward_butterflies"] + inv + n["litho.adjoint_butterflies"]
	}
}

// forwardNames name forwardCosts' variants in errors and progress lines.
var forwardNames = [3]string{"eq3", "eq7", "eq8"}

// forwardCosts times sims forward simulations of the case's target with
// each of Eq. (3), Eq. (7) and Eq. (8) at scale s, in that order, each
// variant after one warm-up that builds its FFT plans outside the timed
// region.
func forwardCosts(sim *litho.Sim, cs bench.Case, s, sims int) ([3]cost, error) {
	work := butterflies(sim)
	ks := sim.Model.Nominal
	pooled := grid.AvgPoolDown(cs.Target, s)
	variants := [3]func() (*litho.Field, error){
		func() (*litho.Field, error) { return sim.Forward(cs.Target, ks, 1, false) },
		func() (*litho.Field, error) { return sim.ForwardEq7(cs.Target, s, ks, 1) },
		func() (*litho.Field, error) { return sim.Forward(pooled, ks, 1, false) },
	}
	var costs [3]cost
	for i, f := range variants {
		if _, err := f(); err != nil {
			return costs, fmt.Errorf("%s: %w", forwardNames[i], err)
		}
		inv0, w0 := work()
		start := time.Now()
		for range sims {
			if _, err := f(); err != nil {
				return costs, fmt.Errorf("%s: %w", forwardNames[i], err)
			}
		}
		wall := time.Since(start).Seconds()
		inv, w := work()
		costs[i] = cost{wall, inv - inv0, w - w0}
	}
	return costs, nil
}

// ForwardTiming reproduces the in-text Section III-B experiment: 200
// forward lithography simulations with Eq. (3) (exact), Eq. (7)
// (frequency-truncated) and Eq. (8) (pooled mask), scale factor 4. The
// paper reports 8.173 s / 0.767 s / 0.466 s on an RTX 3090; the shape to
// reproduce is Eq. 8 < Eq. 7 ≪ Eq. 3. Beside the wall times, the table
// gives each variant's transform work per simulation: the forward and
// inverse butterflies the simulator counts (litho.fft_forward_butterflies
// + litho.fft_inverse_butterflies), which no host noise can move.
func ForwardTiming(c Config, sims int) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	if sims < 1 {
		sims = 200 / c.IterDiv
		if sims < 10 {
			sims = 10
		}
	}
	const scale = 4
	costs, err := forwardCosts(sim, cs, scale, sims)
	if err != nil {
		return nil, err
	}
	var perSim [3]int64
	for i, k := range costs {
		perSim[i] = k.total / int64(sims)
		c.logf("timing: %s — %d sims in %.3fs, %d butterflies each", forwardNames[i], sims, k.wall, perSim[i])
	}
	eq3, eq7, eq8 := costs[0].wall, costs[1].wall, costs[2].wall

	t := report.NewTable(
		fmt.Sprintf("§III-B — %d forward simulations, s=%d, N=%d", sims, scale, c.N),
		"variant", "measured (s)", "speedup vs Eq.3", "paper (s)", "paper speedup", "butterflies/sim")
	t.Add("Eq. (3) exact", report.F(eq3, 3), "1.00",
		report.F(PaperForwardTiming.Eq3, 3), "1.00", fmt.Sprint(perSim[0]))
	t.Add("Eq. (7) truncated", report.F(eq7, 3), report.Ratio(eq3, eq7),
		report.F(PaperForwardTiming.Eq7, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq7), fmt.Sprint(perSim[1]))
	t.Add("Eq. (8) pooled mask", report.F(eq8, 3), report.Ratio(eq3, eq8),
		report.F(PaperForwardTiming.Eq8, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq8), fmt.Sprint(perSim[2]))
	t.Note("expected shape: Eq.8 ≤ Eq.7 ≪ Eq.3 (absolute values are CPU-vs-GPU)")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "forward_timing.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// iterVariants are iterCosts' one-stage runs.
var iterVariants = [3]struct {
	name  string
	stage core.Stage
}{
	{"low-res (s=4)", core.Stage{Scale: 4}},
	{"high-res (s=4)", core.Stage{Scale: 4, HighRes: true}},
	{"full-res (s=1)", core.Stage{Scale: 1}},
}

// iterCosts runs iters iterations of each of iterVariants' stages on the
// case's target, each on a fresh optimizer, and returns each run's ILT
// time and transform work.
func (c Config) iterCosts(sim *litho.Sim, cs bench.Case, iters int) ([3]cost, error) {
	work := butterflies(sim)
	var costs [3]cost
	for i, v := range iterVariants {
		o, err := core.New(c.coreOptions(sim), cs.Target)
		if err != nil {
			return costs, err
		}
		st := v.stage
		st.Iters = iters
		inv0, w0 := work()
		res, err := o.Run(context.Background(), []core.Stage{st})
		if err != nil {
			return costs, fmt.Errorf("%s: %w", v.name, err)
		}
		inv, w := work()
		costs[i] = cost{res.ILTSeconds, inv - inv0, w - w0}
	}
	return costs, nil
}

// IterationTime measures the average per-iteration wall time of the
// low-resolution (s = 4), high-resolution (s = 4) and full-resolution ILT
// loops — the basis of the paper's "low-res ILT is about 18× faster" and
// ">2× total iteration-time reduction" claims.
func IterationTime(c Config, iters int) (*report.Table, error) {
	sim, err := c.Sim()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = maxInt(2, 20/c.IterDiv)
	}
	costs, err := c.iterCosts(sim, cs, iters)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Per-iteration ILT time (%d iterations each, N=%d)", iters, c.N),
		"variant", "total (s)", "ms/iteration", "vs low-res")
	for i, v := range iterVariants {
		per := costs[i].wall / float64(iters)
		c.logf("itertime: %s — %.2f ms/iteration", v.name, per*1000)
		t.Add(v.name, report.F(costs[i].wall, 3),
			report.F(per*1000, 2), report.Ratio(costs[i].wall, costs[0].wall))
	}
	t.Note("paper: low-res ≈ 18× faster than high-res at s=4 on GPU; the CPU ratio tracks the same FFT-size asymptotics")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "iteration_time.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
