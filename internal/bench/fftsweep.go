package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// FFT-engine sweep: the repo-level BENCH_FFT.json artifact tracks the
// FFT engines' speedups across PRs. For each grid size the sweep times one
// exact forward simulation (Eq. 3) and one Gradient of it per FFT engine
// at a fixed worker count of 1 — the single-threaded column is what the
// pruning claims are about, and it is comparable across hosts with
// different core counts. The gradient reuses the amplitudes the forward
// kept, as in the optimizer: the simulator keeps them at m ≤ L, the
// smallest power of two above 2P−1, and above L the batch gradient runs on
// the L grid, rebuilding its amplitudes there (keep_amps false). Each column is the
// fastest of its reps: on a shared host a stall only ever adds time, so the
// minimum is the estimate one stall cannot move. Speedups are relative to
// the reference (dense) engine of the same run.

// FFTPoint is one grid size's measurement (seconds per forward simulation
// and per gradient).
type FFTPoint struct {
	M            int     `json:"m"`
	ReferenceSec float64 `json:"reference_sec"` // dense forward + dense inverses
	BatchedSec   float64 `json:"batched_sec"`   // packed forward + fused batched inverse
	BatchedGain  float64 `json:"batched_speedup"`
	// Gradient columns: dense adjoint transforms on the reference engine,
	// output-pruned ones on the batch engine.
	KeepAmps         bool    `json:"keep_amps"` // amplitudes kept by the forward, not recomputed
	ReferenceGradSec float64 `json:"reference_grad_sec"`
	BatchedGradSec   float64 `json:"batched_grad_sec"`
	BatchedGradGain  float64 `json:"batched_grad_speedup"`
	// Exact transform work per engine of one Forward — its mask spectrum
	// and its SOCS inverses — and of one Gradient (the simulator's
	// litho.fft_forward_butterflies, litho.fft_inverse_butterflies and
	// litho.adjoint_butterflies). Host noise cannot move them, so the gate
	// holds them exactly: a pruned path falling back to dense transforms
	// fails it at any size.
	ForwardButterflies map[string]int64 `json:"forward_butterflies,omitempty"`
	InverseButterflies map[string]int64 `json:"inverse_butterflies,omitempty"`
	AdjointButterflies map[string]int64 `json:"adjoint_butterflies,omitempty"`
}

// sweepEngines are the engines of a sweep, in report order.
var sweepEngines = []litho.FFTEngine{litho.EngineReference, litho.EngineBatch}

// sweepColumn is one timed column of a point: an engine's forward or
// gradient seconds.
type sweepColumn struct {
	phase, engine string // "forward" or "gradient", engine spelling
	sec           float64
}

// columns returns the point's timed columns: every engine's forward, then
// every engine's gradient, each in sweepEngines order.
func (p FFTPoint) columns() []sweepColumn {
	fwd := []float64{p.ReferenceSec, p.BatchedSec}
	grad := []float64{p.ReferenceGradSec, p.BatchedGradSec}
	cols := make([]sweepColumn, 0, 2*len(sweepEngines))
	for i, e := range sweepEngines {
		cols = append(cols, sweepColumn{"forward", e.String(), fwd[i]})
	}
	for i, e := range sweepEngines {
		cols = append(cols, sweepColumn{"gradient", e.String(), grad[i]})
	}
	return cols
}

// FFTSweep is the serializable sweep report.
type FFTSweep struct {
	FieldNM float64 `json:"field_nm"`
	Kernels int     `json:"kernels"`
	P       int     `json:"p"` // kernel support: the band is P×P
	Reps    int     `json:"reps"`
	Workers int     `json:"workers"`
	// Host context, in the run-manifest host schema (self-describing
	// trajectory file, like BENCH_WORKERS.json).
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Host       telemetry.HostInfo `json:"host"`
	Points     []FFTPoint         `json:"points"`
}

// RunFFTSweep measures the forward-simulation and gradient cost of each
// FFT engine at the given grid sizes: the fastest of reps timed runs after
// one warm-up each.
func RunFFTSweep(sizes []int, fieldNM float64, kernels, reps int) (*FFTSweep, error) {
	if reps < 1 {
		reps = 1
	}
	if len(sizes) == 0 {
		sizes = []int{256, 512, 1024}
	}
	oc := optics.Default()
	oc.FieldNM = fieldNM
	oc.NumKernels = kernels
	model, err := optics.BuildModel(oc)
	if err != nil {
		return nil, err
	}
	sweep := &FFTSweep{
		FieldNM: fieldNM, Kernels: len(model.Nominal.Kernels), P: model.Nominal.P,
		Reps: reps, Workers: 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host: telemetry.Host(),
	}
	for _, m := range sizes {
		cs, err := M1Case(m, fieldNM, 1, PaperM1Areas[0], m1Params())
		if err != nil {
			return nil, err
		}
		mask := cs.Target
		// A fixed, mask-shaped dL/dI: the adjoint's cost does not depend
		// on its values.
		dLdI := mask.Clone()
		keep := false
		// Every engine's forwards run before any gradient, so no forward is
		// timed in a heap that a gradient's amplitudes have grown.
		var fwd, grad [2]float64
		fwdBF, invBF, adjBF := map[string]int64{}, map[string]int64{}, map[string]int64{}
		for i, e := range sweepEngines {
			sim := sweepSim(model, e)
			// Warm-up builds the plan, band tables and scratch pools.
			if _, err := sim.Forward(mask, model.Nominal, 1, false); err != nil {
				return nil, err
			}
			fwd[i], err = fastest(reps, func() error {
				_, err := sim.Forward(mask, model.Nominal, 1, false)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		for i, e := range sweepEngines {
			sim := sweepSim(model, e)
			rec := telemetry.New() // counts the untimed calls' transform work
			sim.Recorder = rec
			f, err := sim.Forward(mask, model.Nominal, 1, true)
			if err != nil {
				return nil, err
			}
			keep = f.Amps != nil
			if _, err := sim.Gradient(f, dLdI); err != nil { // warm-up
				return nil, err
			}
			c := rec.Counters()
			fwdBF[e.String()] = c["litho.fft_forward_butterflies"]
			invBF[e.String()], adjBF[e.String()] = c["litho.fft_inverse_butterflies"], c["litho.adjoint_butterflies"]
			sim.Recorder = nil
			grad[i], err = fastest(reps, func() error {
				_, err := sim.Gradient(f, dLdI)
				return err
			})
			if err != nil {
				return nil, err
			}
			sim.Release(f)
		}
		sweep.Points = append(sweep.Points, FFTPoint{
			M: m, KeepAmps: keep,
			ReferenceSec: fwd[0], BatchedSec: fwd[1], BatchedGain: speedup(fwd[0], fwd[1]),
			ReferenceGradSec: grad[0], BatchedGradSec: grad[1], BatchedGradGain: speedup(grad[0], grad[1]),
			ForwardButterflies: fwdBF, InverseButterflies: invBF, AdjointButterflies: adjBF,
		})
	}
	return sweep, nil
}

// fastest runs call reps times and returns its shortest wall time in
// seconds.
func fastest(reps int, call func() error) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		if sec := time.Since(start).Seconds(); r == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// sweepSim returns a fresh single-worker simulator on engine e.
func sweepSim(model *optics.Model, e litho.FFTEngine) *litho.Sim {
	sim := litho.NewSim(model)
	sim.Workers = 1
	sim.Engine = e
	return sim
}

// speedup is ref/sec, or 0 when sec was not measured.
func speedup(ref, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return ref / sec
}

// WriteJSON writes the sweep report (indented, trailing newline) to path.
func (s *FFTSweep) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareFFTSweeps renders a per-size old-vs-new delta table for two sweep
// reports (make bench-compare), forward and gradient columns alike. Sizes
// present in only one report are skipped.
func CompareFFTSweeps(old, new *FFTSweep) string {
	oldAt := map[int]FFTPoint{}
	for _, p := range old.Points {
		oldAt[p.M] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s  %-9s  %-14s  %-12s  %-12s  %s\n", "m", "phase", "engine", "old", "new", "delta")
	for _, np := range new.Points {
		op, ok := oldAt[np.M]
		if !ok {
			continue
		}
		oc := op.columns()
		for i, c := range np.columns() {
			o, n := oc[i].sec, c.sec
			delta := "n/a"
			if o > 0 && n > 0 {
				delta = fmt.Sprintf("%+.1f%%", (n/o-1)*100)
			}
			fmt.Fprintf(&b, "%-6d  %-9s  %-14s  %10.4fs  %10.4fs  %s\n", np.M, c.phase, c.engine, o, n, delta)
		}
	}
	return b.String()
}

// GateFFTSweeps is the bench-compare regression gate. It fails when, at
// any size of the new report, the batch engine's forward or gradient
// speedup over the reference engine falls below minSpeedup, or when any
// engine's butterfly count grew over the old report at a size both share.
// Both engines of a speedup are timed in the same run, so host speed
// cancels out of it: a pruning or fusion path silently disabled (a dense
// fallback reads about 1×) fails at any host speed. A slowdown of the
// reference engine, or of both engines alike, does not move the ratio and
// is not caught. Speedups the new report did not measure (zero) are
// skipped. The butterfly counts are exact, so they are held exactly.
func GateFFTSweeps(old, new *FFTSweep, minSpeedup float64) error {
	oldAt := map[int]FFTPoint{}
	for _, p := range old.Points {
		oldAt[p.M] = p
	}
	var fails []string
	for _, np := range new.Points {
		for _, c := range []struct {
			name string
			gain float64
		}{{"batch", np.BatchedGain}, {"batch gradient", np.BatchedGradGain}} {
			if c.gain > 0 && c.gain < minSpeedup {
				fails = append(fails, fmt.Sprintf("m=%d %s speedup %.2f× < %g×", np.M, c.name, c.gain, minSpeedup))
			}
		}
		op, ok := oldAt[np.M]
		if !ok {
			continue
		}
		for _, c := range []struct {
			phase    string
			old, new map[string]int64
		}{
			{"forward", op.ForwardButterflies, np.ForwardButterflies},
			{"inverse", op.InverseButterflies, np.InverseButterflies},
			{"adjoint", op.AdjointButterflies, np.AdjointButterflies},
		} {
			for _, e := range sweepEngines {
				if o, n := c.old[e.String()], c.new[e.String()]; o > 0 && n > o {
					fails = append(fails, fmt.Sprintf("m=%d %s %s butterflies %d → %d", np.M, e, c.phase, o, n))
				}
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("bench: regression gate (batch speedup ≥ %g×, butterflies held) failed:\n  %s", minSpeedup, strings.Join(fails, "\n  "))
	}
	return nil
}

// LoadFFTSweep reads a sweep report written by WriteJSON.
func LoadFFTSweep(path string) (*FFTSweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s FFTSweep
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &s, nil
}
