// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suites. Each experiment
// returns a report.Table (and optionally writes image/CSV artifacts), so
// the cmd/mltables CLI and the root benchmark suite share one
// implementation. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// Config selects the scale of an experiment run. The paper operates at
// N = 2048 px over a 2048 nm field (1 nm/px); the default harness runs the
// same physics at N = 512 (4 nm/px), and the benchmark suite shrinks
// further so `go test -bench` finishes in minutes on a laptop CPU.
type Config struct {
	// N is the simulation grid (power of two).
	N int
	// FieldNM is the physical tile size; the kernel support grows with it.
	FieldNM float64
	// Kernels is N_k.
	Kernels int
	// IterDiv divides every recipe's iteration budget (1 = paper budgets).
	IterDiv int
	// Workers bounds the per-kernel fan-out of the SOCS simulation loops;
	// 0 selects runtime.GOMAXPROCS(0). Results are bit-identical for every
	// value (see DESIGN.md, "Concurrency model").
	Workers int
	// WithBaselines also measures the reimplemented baselines (pixel ILT,
	// attention ILT, level-set ILT), which dominate runtime.
	WithBaselines bool
	// OutDir, when non-empty, receives image and CSV artifacts.
	OutDir string
	// Recorder, when enabled, receives experiment progress events and is
	// the simulator's recorder for phase timers (the -v flag of
	// cmd/mltables wires a console sink here).
	Recorder *telemetry.Recorder
}

// Harness is the default reproduction scale: full recipe budgets on a
// 512-px grid over the paper's 2048 nm field (so P = 35, N_k = 24 exactly
// as in the paper, at 4 nm/px).
func Harness() Config {
	return Config{N: 512, FieldNM: 2048, Kernels: 24, IterDiv: 1, WithBaselines: true}
}

// Paper is the full-scale configuration (N = 2048, 1 nm/px). Expect hours
// of CPU time.
func Paper() Config {
	return Config{N: 2048, FieldNM: 2048, Kernels: 24, IterDiv: 1, WithBaselines: true}
}

// BenchScale is the configuration used by the `go test -bench` suite:
// quarter budgets on a 256-px grid over a 1024 nm field.
func BenchScale() Config {
	return Config{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 4, WithBaselines: false}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.N < 64 || c.N&(c.N-1) != 0 {
		return fmt.Errorf("experiments: N = %d must be a power of two ≥ 64", c.N)
	}
	if c.FieldNM <= 0 {
		return fmt.Errorf("experiments: FieldNM = %g must be positive", c.FieldNM)
	}
	if c.Kernels < 1 {
		return fmt.Errorf("experiments: Kernels = %d must be ≥ 1", c.Kernels)
	}
	if c.IterDiv < 1 {
		return fmt.Errorf("experiments: IterDiv = %d must be ≥ 1", c.IterDiv)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: Workers = %d must be ≥ 0", c.Workers)
	}
	return nil
}

// PixelNM is the pixel pitch.
func (c Config) PixelNM() float64 { return c.FieldNM / float64(c.N) }

// Optics returns the optics configuration at this scale.
func (c Config) Optics() optics.Config {
	oc := optics.Default()
	oc.FieldNM = c.FieldNM
	oc.NumKernels = c.Kernels
	return oc
}

// Sim builds the lithography simulator at this scale (newSim over
// c.Optics()), rejecting a grid too small for the recipes' s = 8 stages.
func (c Config) Sim() (*litho.Sim, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sim, err := c.newSim(c.Optics())
	if err != nil {
		return nil, err
	}
	if p := sim.Model.Nominal.P; c.N/8 < p {
		// The s = 8 stages of the recipes need N/8 ≥ P.
		return nil, fmt.Errorf("experiments: grid %d too small for kernel support %d at s=8 (raise N or shrink FieldNM)", c.N, p)
	}
	return sim, nil
}

// newSim builds the kernel model of oc, timed as setup.optics, and a
// simulator over it with the run's workers, recording to c.Recorder.
func (c Config) newSim(oc optics.Config) (*litho.Sim, error) {
	sp := c.Recorder.StartSpan("setup.optics")
	model, err := optics.BuildModel(oc)
	sp.End()
	if err != nil {
		return nil, err
	}
	sim := litho.NewSim(model)
	sim.Workers = c.Workers
	sim.Recorder = c.Recorder
	return sim, nil
}

// RegionMargins returns the Fig. 7 region margins in pixels: a tight
// per-feature margin for option 1 and a generous whole-layout margin for
// option 2.
func (c Config) RegionMargins() (opt1Px, opt2Px int) {
	px := c.PixelNM()
	opt1Px = int(math.Round(60 / px))
	if opt1Px < 2 {
		opt1Px = 2
	}
	opt2Px = int(math.Round(200 / px))
	if opt2Px < opt1Px {
		opt2Px = opt1Px + 1
	}
	return opt1Px, opt2Px
}

// logf emits a progress line through the recorder's sinks (the mltables -v
// console); without a recorder it is a no-op.
func (c Config) logf(format string, args ...any) {
	c.Recorder.Progressf(format, args...)
}
