// Package server turns the batch multi-level ILT pipeline into a
// long-running HTTP/JSON service: a bounded two-priority job queue with
// backpressure, per-job cancellation threaded as context.Context through
// the optimizer's stage loop, per-iteration progress streamed as
// server-sent events from the telemetry recorder, shared SOCS-kernel and
// FFT-plan caches keyed by process parameters, and graceful drain.
//
// Re-entrancy contract (see DESIGN.md, "Serving"): concurrent jobs share
// only immutable or concurrency-safe state — the optics.Model kernel sets
// (read-only after construction) and litho's process-wide FFT-plan cache
// (singleflight) and scratch pools. Everything mutable is per job: each
// job gets its own litho.Sim, its own core.Optimizer, and its own
// telemetry.Recorder feeding that job's event log. The package itself
// holds no package-level state.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/optics"
)

// Priority is a job's scheduling class. Interactive jobs are dequeued
// before batch jobs; within a class the queue is FIFO.
type Priority int

const (
	// PriorityBatch is the default class.
	PriorityBatch Priority = iota
	// PriorityInteractive jumps ahead of every queued batch job.
	PriorityInteractive
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "batch"
}

// StageSpec is the wire form of one multi-level stage.
type StageSpec struct {
	Scale   int  `json:"scale"`
	Iters   int  `json:"iters"`
	HighRes bool `json:"highres,omitempty"`
}

// JobRequest is the submission payload of POST /jobs. Exactly one target
// source (layout, case, via) must be set; recipe and stages are mutually
// exclusive (recipe defaults to "fast" when both are absent).
type JobRequest struct {
	// Layout is an inline layout in the text format of internal/layout.
	Layout string `json:"layout,omitempty"`
	// Case selects a synthetic paper benchmark case (1-20).
	Case int `json:"case,omitempty"`
	// Via selects a synthetic via-layer case (≥ 1).
	Via int `json:"via,omitempty"`

	// N is the simulation grid side (power of two). Defaults to the
	// layout's declared size, or 512 for synthetic cases.
	N int `json:"n,omitempty"`
	// FieldNM is the physical tile size in nm (default 2048).
	FieldNM float64 `json:"field_nm,omitempty"`
	// Kernels is the SOCS kernel count N_k (default 24).
	Kernels int `json:"kernels,omitempty"`

	// Recipe names a paper schedule: fast | exact | via.
	Recipe string `json:"recipe,omitempty"`
	// Stages is an explicit schedule, overriding Recipe.
	Stages []StageSpec `json:"stages,omitempty"`
	// IterDiv divides every stage budget (rounding up, min 1).
	IterDiv int `json:"iterdiv,omitempty"`

	// Workers bounds the per-kernel simulation fan-out inside this job
	// (0 = GOMAXPROCS). Results are bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// Priority is "batch" (default) or "interactive".
	Priority string `json:"priority,omitempty"`

	// Momentum, LineSearch, TV, Curvature and Patience mirror the
	// core.Options knobs of the same names.
	Momentum   float64 `json:"momentum,omitempty"`
	LineSearch bool    `json:"linesearch,omitempty"`
	TV         float64 `json:"tv,omitempty"`
	Curvature  float64 `json:"curvature,omitempty"`
	Patience   int     `json:"patience,omitempty"`

	// Metrics additionally evaluates the contest metrics (L2, PVB, EPE,
	// shots) on the final mask — three extra exact simulations.
	Metrics bool `json:"metrics,omitempty"`
}

// Limits bounds what a single job may ask for. The zero value selects the
// defaults noted per field.
type Limits struct {
	// MaxN caps the simulation grid side (default 2048).
	MaxN int
	// MaxKernels caps N_k (default 64).
	MaxKernels int
	// MaxIters caps the total iteration budget across stages after
	// IterDiv (default 2000).
	MaxIters int
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
}

func (l Limits) withDefaults() Limits {
	if l.MaxN <= 0 {
		l.MaxN = 2048
	}
	if l.MaxKernels <= 0 {
		l.MaxKernels = 64
	}
	if l.MaxIters <= 0 {
		l.MaxIters = 2000
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 8 << 20
	}
	return l
}

// JobSpec is a validated, fully-resolved job: everything an executor needs
// except the shared caches. Building it performs every check that can fail
// on malformed input, so executors only see errors from the numerics.
type JobSpec struct {
	Req      JobRequest
	Name     string // human label: layout / case-N / via-N
	Target   *grid.Mat
	Stages   []core.Stage
	Optics   optics.Config
	Priority Priority
	// Patience is the early-stopping window: the request's patience when
	// it is above 0, else the recipe's (core.Recipe).
	Patience int
}

// ParseJobRequest decodes and validates a job submission. Every error is a
// client error (HTTP 400): unknown fields, malformed JSON, out-of-range or
// non-finite numerics, oversized grids, schedules that violate the
// multi-level invariants (including the kernel-support bound m ≥ P, which
// is predicted from the optics configuration without building kernels).
// It never panics on arbitrary input — FuzzParseJobRequest enforces that.
func ParseJobRequest(data []byte, lim Limits) (*JobSpec, error) {
	lim = lim.withDefaults()
	if int64(len(data)) > lim.MaxBodyBytes {
		return nil, fmt.Errorf("request body %d bytes exceeds limit %d", len(data), lim.MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after JSON object")
	}
	return resolveJob(req, lim)
}

func resolveJob(req JobRequest, lim Limits) (*JobSpec, error) {
	spec := &JobSpec{Req: req}

	// Every float knob must be finite before any of them is interpreted.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"field_nm", req.FieldNM}, {"momentum", req.Momentum},
		{"tv", req.TV}, {"curvature", req.Curvature},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("%s must be finite, got %g", f.name, f.v)
		}
	}

	sources := 0
	if req.Layout != "" {
		sources++
	}
	if req.Case != 0 {
		sources++
	}
	if req.Via != 0 {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of layout, case, via must be set (got %d)", sources)
	}

	n := req.N
	if req.Layout != "" {
		l, err := layout.Parse(strings.NewReader(req.Layout))
		if err != nil {
			return nil, fmt.Errorf("layout: %w", err)
		}
		if n == 0 {
			n = l.Size
		} else if n != l.Size {
			return nil, fmt.Errorf("n = %d does not match layout SIZE %d", n, l.Size)
		}
		if err := checkGridSize(n, lim); err != nil {
			return nil, err
		}
		target, err := l.Rasterize()
		if err != nil {
			return nil, fmt.Errorf("layout: %w", err)
		}
		spec.Target, spec.Name = target, "layout"
	} else if n == 0 {
		n = 512
	}
	if err := checkGridSize(n, lim); err != nil {
		return nil, err
	}

	field := req.FieldNM
	if field == 0 {
		field = 2048
	}
	if field <= 0 || field > 1e6 {
		return nil, fmt.Errorf("field_nm = %g outside (0, 1e6]", field)
	}
	kernels := req.Kernels
	if kernels == 0 {
		kernels = 24
	}
	if kernels < 1 || kernels > lim.MaxKernels {
		return nil, fmt.Errorf("kernels = %d outside [1, %d]", kernels, lim.MaxKernels)
	}

	switch {
	case req.Case != 0:
		if req.Case < 1 || req.Case > 20 {
			return nil, fmt.Errorf("case = %d outside [1, 20]", req.Case)
		}
		cs, err := bench.PaperCase(n, field, req.Case)
		if err != nil {
			return nil, err
		}
		spec.Target, spec.Name = cs.Target, cs.Name
	case req.Via != 0:
		if req.Via < 1 || req.Via > 20 {
			return nil, fmt.Errorf("via = %d outside [1, 20]", req.Via)
		}
		cs, err := bench.PaperVia(n, field, req.Via)
		if err != nil {
			return nil, err
		}
		spec.Target, spec.Name = cs.Target, cs.Name
	}

	oc := optics.Default()
	oc.FieldNM = field
	oc.NumKernels = kernels
	if err := oc.Validate(); err != nil {
		return nil, err
	}
	spec.Optics = oc

	stages, patience, err := resolveStages(req, n, oc.P(), lim)
	if err != nil {
		return nil, err
	}
	spec.Stages, spec.Patience = stages, patience
	if req.Patience > 0 {
		spec.Patience = req.Patience
	}

	switch req.Priority {
	case "", "batch":
		spec.Priority = PriorityBatch
	case "interactive":
		spec.Priority = PriorityInteractive
	default:
		return nil, fmt.Errorf("priority %q is not batch or interactive", req.Priority)
	}

	if req.Momentum < 0 || req.Momentum >= 1 {
		return nil, fmt.Errorf("momentum = %g outside [0, 1)", req.Momentum)
	}
	if req.TV < 0 || req.Curvature < 0 {
		return nil, fmt.Errorf("penalty weights must be ≥ 0 (tv %g, curvature %g)", req.TV, req.Curvature)
	}
	if req.Patience < 0 {
		return nil, fmt.Errorf("patience = %d must be ≥ 0", req.Patience)
	}
	if req.Workers < 0 || req.Workers > 256 {
		return nil, fmt.Errorf("workers = %d outside [0, 256]", req.Workers)
	}
	return spec, nil
}

func checkGridSize(n int, lim Limits) error {
	if n < 64 || n > lim.MaxN || n&(n-1) != 0 {
		return fmt.Errorf("n = %d must be a power of two in [64, %d]", n, lim.MaxN)
	}
	return nil
}

// resolveStages turns the recipe/stages request fields into a validated
// core schedule and the recipe's patience (0 for explicit stages),
// applying IterDiv and enforcing the same invariants core.Optimizer checks
// (plus the server-side budget cap) so bad schedules are rejected at
// submission with a 400, not at execution.
func resolveStages(req JobRequest, n, p int, lim Limits) ([]core.Stage, int, error) {
	iterdiv := req.IterDiv
	if iterdiv == 0 {
		iterdiv = 1
	}
	if iterdiv < 1 || iterdiv > 1000 {
		return nil, 0, fmt.Errorf("iterdiv = %d outside [1, 1000]", iterdiv)
	}

	var stages []core.Stage
	patience := 0
	if len(req.Stages) > 0 {
		if req.Recipe != "" {
			return nil, 0, fmt.Errorf("recipe and stages are mutually exclusive")
		}
		if len(req.Stages) > 16 {
			return nil, 0, fmt.Errorf("%d stages exceed the limit of 16", len(req.Stages))
		}
		for i, ss := range req.Stages {
			if ss.Scale < 1 || ss.Scale > 64 {
				return nil, 0, fmt.Errorf("stage %d: scale %d outside [1, 64]", i, ss.Scale)
			}
			if ss.Iters < 0 {
				return nil, 0, fmt.Errorf("stage %d: negative iters %d", i, ss.Iters)
			}
			stages = append(stages, core.Stage{Scale: ss.Scale, Iters: ss.Iters, HighRes: ss.HighRes})
		}
	} else {
		name := req.Recipe
		if name == "" {
			name = "fast"
		}
		var err error
		if stages, patience, err = core.Recipe(name); err != nil {
			return nil, 0, err
		}
	}
	stages = core.ScaleStages(stages, iterdiv)

	total := 0
	for i, st := range stages {
		if n%st.Scale != 0 {
			return nil, 0, fmt.Errorf("stage %d: scale %d does not divide grid %d", i, st.Scale, n)
		}
		m := n / st.Scale
		if m&(m-1) != 0 {
			return nil, 0, fmt.Errorf("stage %d: working size %d is not a power of two", i, m)
		}
		if m < p {
			return nil, 0, fmt.Errorf("stage %d: working size %d below kernel support %d (shrink field_nm or raise n)", i, m, p)
		}
		total += st.Iters
	}
	if total > lim.MaxIters {
		return nil, 0, fmt.Errorf("total iteration budget %d exceeds limit %d", total, lim.MaxIters)
	}
	return stages, patience, nil
}
