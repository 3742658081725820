package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// ForwardTiming reproduces the in-text Section III-B experiment: 200
// forward lithography simulations with Eq. (3) (exact), Eq. (7)
// (frequency-truncated) and Eq. (8) (pooled mask), scale factor 4. The
// paper reports 8.173 s / 0.767 s / 0.466 s on an RTX 3090; the shape to
// reproduce is Eq. 8 < Eq. 7 ≪ Eq. 3. Beside the wall times, the table
// gives each variant's transform work per simulation: the forward and
// inverse butterflies the simulator counts (litho.fft_forward_butterflies
// + litho.fft_inverse_butterflies), which no host noise can move.
func ForwardTiming(c Config, sims int) (*report.Table, error) {
	p, err := c.Process()
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
	ks := p.Sim.Model.Nominal
	pooled := poolTarget(cs, scale)
	rec := p.Sim.Recorder
	if rec == nil {
		rec = telemetry.New() // for the work column's counters only
		p.Sim.Recorder = rec
	}
	work := func() int64 {
		n := rec.Counters()
		return n["litho.fft_forward_butterflies"] + n["litho.fft_inverse_butterflies"]
	}

	// run returns the variant's wall time over sims simulations and its
	// transform work per simulation.
	run := func(name string, f func() error) (float64, int64, error) {
		// One warm-up builds the FFT plans outside the timed region.
		if err := f(); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		w0 := work()
		start := time.Now()
		for i := 0; i < sims; i++ {
			if err := f(); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		sec := time.Since(start).Seconds()
		perSim := (work() - w0) / int64(sims)
		c.logf("timing: %s — %d sims in %.3fs, %d butterflies each", name, sims, sec, perSim)
		return sec, perSim, nil
	}

	eq3, work3, err := run("eq3", func() error {
		_, err := p.Sim.Forward(cs.Target, ks, 1, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	eq7, work7, err := run("eq7", func() error {
		_, err := p.Sim.ForwardEq7(cs.Target, scale, ks, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	eq8, work8, err := run("eq8", func() error {
		_, err := p.Sim.Forward(pooled, ks, 1, false)
		return err
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("§III-B — %d forward simulations, s=%d, N=%d", sims, scale, c.N),
		"variant", "measured (s)", "speedup vs Eq.3", "paper (s)", "paper speedup", "butterflies/sim")
	t.Add("Eq. (3) exact", report.F(eq3, 3), "1.00",
		report.F(PaperForwardTiming.Eq3, 3), "1.00", fmt.Sprint(work3))
	t.Add("Eq. (7) truncated", report.F(eq7, 3), report.Ratio(eq3, eq7),
		report.F(PaperForwardTiming.Eq7, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq7), fmt.Sprint(work7))
	t.Add("Eq. (8) pooled mask", report.F(eq8, 3), report.Ratio(eq3, eq8),
		report.F(PaperForwardTiming.Eq8, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq8), fmt.Sprint(work8))
	t.Note("expected shape: Eq.8 ≤ Eq.7 ≪ Eq.3 (absolute values are CPU-vs-GPU)")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "forward_timing.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// IterationTime measures the average per-iteration wall time of the
// low-resolution (s = 4), high-resolution (s = 4) and full-resolution ILT
// loops — the basis of the paper's "low-res ILT is about 18× faster" and
// ">2× total iteration-time reduction" claims.
func IterationTime(c Config, iters int) (*report.Table, error) {
	p, err := c.Process()
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
	type variant struct {
		name  string
		stage core.Stage
	}
	variants := []variant{
		{"low-res (s=4)", core.Stage{Scale: 4, Iters: iters}},
		{"high-res (s=4)", core.Stage{Scale: 4, Iters: iters, HighRes: true}},
		{"full-res (s=1)", core.Stage{Scale: 1, Iters: iters}},
	}
	t := report.NewTable(
		fmt.Sprintf("Per-iteration ILT time (%d iterations each, N=%d)", iters, c.N),
		"variant", "total (s)", "ms/iteration", "vs low-res")
	var per []float64
	for _, v := range variants {
		opts := c.coreOptions(p)
		o, err := core.New(opts, cs.Target)
		if err != nil {
			return nil, err
		}
		res, err := o.Run(context.Background(), []core.Stage{v.stage})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		per = append(per, res.ILTSeconds/float64(res.Iterations))
		c.logf("itertime: %s — %.2f ms/iteration", v.name, per[len(per)-1]*1000)
	}
	for i, v := range variants {
		t.Add(v.name, report.F(per[i]*float64(iters), 3),
			report.F(per[i]*1000, 2), report.Ratio(per[i], per[0]))
	}
	t.Note("paper: low-res ≈ 18× faster than high-res at s=4 on GPU; the CPU ratio tracks the same FFT-size asymptotics")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "iteration_time.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
