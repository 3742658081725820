package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// Workers sweep: the repo-level BENCH_WORKERS.json artifact tracks the
// speedup curve of the parallel SOCS loops across PRs. The sweep times the
// exact forward simulation (Eq. 3) and the adjoint pass on one synthetic M1
// clip for a list of worker counts; per-point speedups are relative to the
// workers = 1 column of the same run, so the curve is comparable across
// hosts even though absolute times are not. Each point is the fastest of
// its reps, as in the FFT-engine sweep: a stall on a shared host only ever
// adds time, so the minimum is the estimate one stall cannot move.

// SweepPoint is one worker count's measurement.
type SweepPoint struct {
	Workers         int     `json:"workers"`
	ForwardSec      float64 `json:"forward_sec"`  // seconds per forward simulation
	GradientSec     float64 `json:"gradient_sec"` // seconds per adjoint pass
	ForwardSpeedup  float64 `json:"forward_speedup"`
	GradientSpeedup float64 `json:"gradient_speedup"`
}

// WorkersSweep is the serializable sweep report.
type WorkersSweep struct {
	// Case geometry: an N² clip of the synthetic M1 case 1 over FieldNM.
	N       int     `json:"n"`
	FieldNM float64 `json:"field_nm"`
	Kernels int     `json:"kernels"`
	Reps    int     `json:"reps"`
	// ModelBuildSec is the wall time of the sweep's optics.BuildModel call:
	// the cold kernel synthesis when the sweep is its process's first build
	// of this configuration, as under benchgen -sweep.
	ModelBuildSec float64 `json:"model_build_sec"`
	// Host context: speedups above NumCPU are not expected. NumCPU and
	// GOMAXPROCS predate the Host block and are kept for artifact
	// compatibility; Host is the run-manifest host schema, making the
	// trajectory file self-describing across machines.
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Host       telemetry.HostInfo `json:"host"`
	Points     []SweepPoint       `json:"points"`
}

// RunWorkersSweep measures the forward/adjoint cost of the given clip size
// for each worker count: the fastest of reps timed runs after one warm-up
// each.
func RunWorkersSweep(n int, fieldNM float64, kernels, reps int, workersList []int) (*WorkersSweep, error) {
	if reps < 1 {
		reps = 1
	}
	if len(workersList) == 0 {
		workersList = []int{1, 2, 4, 8}
	}
	oc := optics.Default()
	oc.FieldNM = fieldNM
	oc.NumKernels = kernels
	start := time.Now()
	model, err := optics.BuildModel(oc)
	if err != nil {
		return nil, err
	}
	build := time.Since(start).Seconds()
	cs, err := M1Case(n, fieldNM, 1, PaperM1Areas[0], m1Params())
	if err != nil {
		return nil, err
	}
	mask := cs.Target
	dLdI := mask.Clone() // any dense adjoint seed works; shape is what matters

	sweep := &WorkersSweep{
		N: n, FieldNM: fieldNM, Kernels: len(model.Nominal.Kernels), Reps: reps,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host: telemetry.Host(), ModelBuildSec: build,
	}
	for _, w := range workersList {
		if w < 1 {
			return nil, fmt.Errorf("bench: sweep worker count %d must be ≥ 1", w)
		}
		sim := litho.NewSim(model)
		sim.Workers = w

		// Forward (Eq. 3): warm-up builds the plan and the scratch pools.
		f, err := sim.Forward(mask, model.Nominal, 1, false)
		if err != nil {
			return nil, err
		}
		fwd, err := fastest(reps, func() error {
			_, err := sim.Forward(mask, model.Nominal, 1, false)
			return err
		})
		if err != nil {
			return nil, err
		}

		// Adjoint of a field without kept amplitudes: at a clip above the
		// gradient's grid L (128 px at P = 35), the optimizer's
		// high-resolution path, it runs on the L grid; at or below L it
		// rebuilds the amplitudes at the clip's size.
		if _, err := sim.Gradient(f, dLdI); err != nil {
			return nil, err
		}
		grad, err := fastest(reps, func() error {
			_, err := sim.Gradient(f, dLdI)
			return err
		})
		if err != nil {
			return nil, err
		}

		sweep.Points = append(sweep.Points, SweepPoint{Workers: w, ForwardSec: fwd, GradientSec: grad})
	}
	// Speedups vs the workers = 1 point of this run (first point with w == 1,
	// else the first point).
	base := sweep.Points[0]
	for _, p := range sweep.Points {
		if p.Workers == 1 {
			base = p
			break
		}
	}
	for i := range sweep.Points {
		if sweep.Points[i].ForwardSec > 0 {
			sweep.Points[i].ForwardSpeedup = base.ForwardSec / sweep.Points[i].ForwardSec
		}
		if sweep.Points[i].GradientSec > 0 {
			sweep.Points[i].GradientSpeedup = base.GradientSec / sweep.Points[i].GradientSec
		}
	}
	return sweep, nil
}

// WriteJSON writes the sweep report (indented, trailing newline) to path.
func (s *WorkersSweep) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
