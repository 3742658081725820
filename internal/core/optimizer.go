package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/telemetry"
)

// Options configures the multi-level ILT optimizer. Zero values are not
// usable; start from DefaultOptions.
type Options struct {
	// Sim supplies the forward model and its corners.
	Sim *litho.Sim
	// Binary is the optimization binary function (paper: sigmoid with
	// β = 4, T_R = 0.5; conventional ILT uses T_R = 0; the cosine of
	// Poonawala & Milanfar is available as mask.Cosine).
	Binary mask.BinaryFunc
	// OutputTR is the T_R used to regenerate the mask for the final hard
	// binarization (paper: 0.4, smaller than the optimization T_R so weak
	// SRAFs survive Eq. 12).
	OutputTR float64
	// LearningRate is the gradient-descent step (paper's ablation: 1).
	LearningRate float64
	// SmoothWindow is the stride-1 average-pooling window applied to the
	// binarized mask in low-resolution iterations (paper: 3; 0 disables,
	// reproducing the "without pooling" column of Fig. 6).
	SmoothWindow int
	// Region constrains optimization to a full-resolution 0/1 region
	// (Fig. 7); nil allows the whole tile.
	Region *grid.Mat
	// Patience > 0 enables early stopping: a stage exits when the loss has
	// not reached a new minimum for Patience iterations (the via flow
	// uses 15).
	Patience int
	// Momentum adds a heavy-ball term to the update (0 disables): the
	// velocity buffer is reset at stage transitions because the parameter
	// grid changes size.
	Momentum float64
	// LineSearch enables the backtracking line search of Zhao & Chu [12]:
	// each step starts from LearningRate and halves (up to 4 times) until
	// the Eq. (5) loss decreases; the last candidate is taken if none do.
	LineSearch bool
	// GradHook, when set, can reshape the raw dL/dM′ in place before the
	// region mask and the update are applied. Baselines use it to inject
	// their gradient conditioning (e.g. A2-ILT's spatial attention).
	GradHook func(g *grid.Mat, st Stage)
	// Penalties are optional mask regularizers (TV, curvature) added to the
	// Eq. (5) loss; see Penalty.
	Penalties []Penalty
	// Recorder receives per-iteration trace events (stage index, scale,
	// loss terms, step size, line-search retries, wall time), stage
	// start/end markers, and the phase timers of the optimizer's own work
	// between simulator calls: core.binarize, core.resample, core.loss,
	// core.penalty and core.update. No core span encloses a simulator call.
	// Nil (the default) disables them at zero cost. The simulator's phase
	// timers go to Sim.Recorder, which the optimizer never sets: the
	// simulator, its worker count and its FFT engine are configured on Sim
	// alone.
	Recorder *telemetry.Recorder
}

// DefaultOptions returns the paper's settings over a simulator.
func DefaultOptions(sim *litho.Sim) Options {
	return Options{
		Sim:          sim,
		Binary:       mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0.5},
		OutputTR:     0.4,
		LearningRate: 1,
		SmoothWindow: 3,
	}
}

// ErrNonFinite reports that an optimization stage met a NaN or infinite
// loss or gradient. Run stops at the first one and returns it wrapped.
var ErrNonFinite = errors.New("core: non-finite loss or gradient")

// Stage is one level of the multi-level schedule.
type Stage struct {
	// Scale is the resolution scale factor s (1 = full resolution).
	Scale int
	// Iters is the iteration budget of the stage.
	Iters int
	// HighRes selects the flag = 1 branch of Algorithm 1 (coarse mask,
	// exact full-resolution simulation, pooled loss); false selects the
	// flag = 0 low-resolution branch.
	HighRes bool
}

// IterRecord is one point of the optimization trace.
type IterRecord struct {
	Stage int
	Iter  int
	Loss  LossTerms
	// Scale and HighRes identify the stage's resolution level.
	Scale   int
	HighRes bool
	// Step is the committed step size (after line-search halvings) and
	// Retries the number of halvings taken (0 without line search).
	Step    float64
	Retries int
	// Seconds is the iteration's wall time.
	Seconds float64
}

// Result is the outcome of a multi-level ILT run.
type Result struct {
	// Params is the final parameter image M′ upsampled to full resolution.
	Params *grid.Mat
	// Mask is the manufactured mask M_out (Eq. 12 with the output T_R).
	Mask *grid.Mat
	// History traces the optimization loss (Eq. 5, at each stage's own
	// working resolution).
	History []IterRecord
	// ILTSeconds is the wall-clock time spent in ILT iterations
	// (post-processing is accounted separately, as in the paper's TAT
	// breakdown).
	ILTSeconds float64
	// Iterations is the total number of executed iterations.
	Iterations int
}

// Optimizer runs multi-level ILT for one target.
type Optimizer struct {
	opts   Options
	target *grid.Mat // full-resolution target Z_t
	n      int
}

// New validates the configuration and builds an optimizer for the target.
func New(opts Options, target *grid.Mat) (*Optimizer, error) {
	if opts.Sim == nil {
		return nil, fmt.Errorf("core: Options.Sim is required")
	}
	if target.W != target.H {
		return nil, fmt.Errorf("core: target must be square, got %dx%d", target.W, target.H)
	}
	if target.W&(target.W-1) != 0 {
		return nil, fmt.Errorf("core: target size %d is not a power of two", target.W)
	}
	if opts.Binary == nil {
		return nil, fmt.Errorf("core: Options.Binary is required")
	}
	if opts.LearningRate <= 0 {
		return nil, fmt.Errorf("core: learning rate must be positive, got %g", opts.LearningRate)
	}
	if opts.Momentum < 0 || opts.Momentum >= 1 {
		return nil, fmt.Errorf("core: momentum %g outside [0, 1)", opts.Momentum)
	}
	if opts.SmoothWindow < 0 || (opts.SmoothWindow > 0 && opts.SmoothWindow%2 == 0) {
		return nil, fmt.Errorf("core: smoothing window must be 0 or odd, got %d", opts.SmoothWindow)
	}
	if opts.Region != nil && (opts.Region.W != target.W || opts.Region.H != target.H) {
		return nil, fmt.Errorf("core: region %dx%d does not match target %dx%d",
			opts.Region.W, opts.Region.H, target.W, target.H)
	}
	return &Optimizer{opts: opts, target: target, n: target.W}, nil
}

// Run executes the stages in order (Fig. 2: low-resolution levels from
// coarse to fine, then high-resolution fine-tuning) and assembles the final
// mask.
//
// Cancelling ctx stops the optimization promptly: the context is checked
// before every iteration and before every line-search retry (the two
// places a stage spends its time), so at most one simulation pass runs
// after cancellation and no scratch leases outlive the call. Run returns
// ctx.Err() (wrapped) in that case. Batch callers pass
// context.Background(); the ILT server threads each job's request context
// through here.
//
// A NaN or infinite loss or gradient stops the run at that iteration (the
// iter.nonfinite event and core.nonfinite counter name it), and Run
// returns an error wrapping ErrNonFinite.
func (o *Optimizer) Run(ctx context.Context, stages []Stage) (*Result, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: no stages")
	}
	for i, st := range stages {
		if err := o.validateStage(st); err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", i, err)
		}
	}
	start := time.Now()
	res := &Result{}
	rec := o.opts.Recorder

	// Algorithm 1 lines 2–3: M′_s is seeded with the pooled target.
	sp := rec.StartSpan("core.resample")
	cur := grid.AvgPoolDown(o.target, stages[0].Scale)
	sp.End()
	curScale := stages[0].Scale

	for i, st := range stages {
		var err error
		sp := rec.StartSpan("core.resample")
		cur, err = resampleParams(cur, curScale, st.Scale)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: stage %d transition: %w", i, err)
		}
		curScale = st.Scale
		cur, err = o.runStage(ctx, cur, st, i, res)
		if err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", i, err)
		}
	}
	res.ILTSeconds = time.Since(start).Seconds()

	sp = rec.StartSpan("core.resample")
	res.Params = grid.UpsampleNearest(cur, curScale)
	sp.End()
	sp = rec.StartSpan("core.binarize")
	defer sp.End()
	if sig, ok := o.opts.Binary.(mask.Sigmoid); ok {
		// The paper's two-T_R scheme: regenerate with the (smaller) output
		// T_R before the hard threshold so weak SRAFs survive.
		res.Mask = mask.FinalOutput(res.Params, sig.Beta, o.opts.OutputTR, mask.DefaultFinalThreshold)
	} else {
		res.Mask = mask.Binarize(o.opts.Binary.Apply(res.Params), mask.DefaultFinalThreshold)
	}
	if o.opts.Region != nil {
		// Pixels outside the optimizing region are never opened.
		mask.ApplyRegion(res.Mask, o.opts.Region)
	}
	return res, nil
}

func (o *Optimizer) validateStage(st Stage) error {
	if st.Scale < 1 {
		return fmt.Errorf("scale %d must be ≥ 1", st.Scale)
	}
	if o.n%st.Scale != 0 {
		return fmt.Errorf("scale %d does not divide grid %d", st.Scale, o.n)
	}
	m := o.n / st.Scale
	if m&(m-1) != 0 {
		return fmt.Errorf("working size %d is not a power of two", m)
	}
	sim := o.opts.Sim
	if m < sim.Model.Nominal.P {
		return fmt.Errorf("working size %d below kernel support %d", m, sim.Model.Nominal.P)
	}
	if st.Iters < 0 {
		return fmt.Errorf("negative iteration budget %d", st.Iters)
	}
	return nil
}

// resampleParams moves M′ between scale factors (nearest upsample towards
// finer levels, average pooling towards coarser ones).
func resampleParams(mp *grid.Mat, from, to int) (*grid.Mat, error) {
	switch {
	case from == to:
		return mp, nil
	case from > to:
		if from%to != 0 {
			return nil, fmt.Errorf("core: cannot refine params from scale %d to %d", from, to)
		}
		return grid.UpsampleNearest(mp, from/to), nil
	default:
		if to%from != 0 {
			return nil, fmt.Errorf("core: cannot coarsen params from scale %d to %d", from, to)
		}
		return grid.AvgPoolDown(mp, to/from), nil
	}
}

// runStage executes one stage, returning the parameters that achieved the
// best loss (which is also what early stopping resumes from).
func (o *Optimizer) runStage(ctx context.Context, mp *grid.Mat, st Stage, stageIdx int, res *Result) (*grid.Mat, error) {
	rec := o.opts.Recorder
	sp := rec.StartSpan("core.resample")
	ztS := grid.AvgPoolDown(o.target, st.Scale)
	var regionS *grid.Mat
	if o.opts.Region != nil {
		regionS = grid.AvgPoolDown(o.opts.Region, st.Scale)
	}
	sp.End()

	sp = rec.StartSpan("core.update")
	best := mp.Clone()
	bestLoss := 0.0
	haveBest := false
	sinceBest := 0
	var velocity *grid.Mat
	if o.opts.Momentum > 0 {
		velocity = grid.NewMat(mp.W, mp.H)
	}
	sp.End()

	rec.Emit("stage.start", telemetry.Fields{
		"stage": stageIdx, "scale": st.Scale, "highres": st.HighRes, "iters": st.Iters,
	})
	stageStart := time.Now()
	itersRun := 0
	// Resolved once per stage: Observe in the loop is then lock- and
	// allocation-free (and a nil no-op when telemetry is off).
	hIter := rec.Histogram("core.iter", telemetry.HistDuration)

	var nonFinite error
	for it := 0; it < st.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterStart := time.Now()
		terms, g, err := o.step(mp, st, ztS, true)
		if err != nil {
			return nil, err
		}
		if !finite(terms.Total()) {
			nonFinite = o.nonFinite(stageIdx, it, "loss")
			break
		}
		// The update; a line search's trials record their own spans, so
		// core.update stops short of them.
		sp := rec.StartSpan("core.update")
		if o.opts.GradHook != nil {
			o.opts.GradHook(g, st)
		}
		if regionS != nil {
			mask.ApplyRegion(g, regionS)
		}
		if velocity != nil {
			velocity.Scale(o.opts.Momentum)
			velocity.Add(g)
			g = velocity
		}
		gFinite := allFinite(g)
		if gFinite && !o.opts.LineSearch {
			mp.AddScaled(-o.opts.LearningRate, g)
		}
		sp.End()
		if !gFinite {
			nonFinite = o.nonFinite(stageIdx, it, "gradient")
			break
		}
		step := o.opts.LearningRate
		retries := 0
		if o.opts.LineSearch {
			step, retries, err = o.lineSearchStep(ctx, mp, g, st, ztS, terms.Total())
			if err != nil {
				return nil, err
			}
		}

		iterDur := time.Since(iterStart)
		hIter.ObserveDuration(iterDur)
		record := IterRecord{
			Stage: stageIdx, Iter: it, Loss: terms,
			Scale: st.Scale, HighRes: st.HighRes,
			Step: step, Retries: retries,
			Seconds: iterDur.Seconds(),
		}
		res.History = append(res.History, record)
		res.Iterations++
		itersRun++
		if rec.Enabled() { // guard: the Fields literal would allocate per iteration
			rec.Emit("iter", telemetry.Fields{
				"stage": stageIdx, "iter": it, "scale": st.Scale,
				"loss": terms.Total(), "l2": terms.L2, "pvb": terms.PVB, "penalty": terms.Penalty,
				"step": step, "retries": retries, "sec": record.Seconds,
			})
		}

		if !haveBest || terms.Total() < bestLoss {
			bestLoss = terms.Total()
			sp := rec.StartSpan("core.update")
			best.CopyFrom(mp)
			sp.End()
			haveBest = true
			sinceBest = 0
		} else {
			sinceBest++
			if o.opts.Patience > 0 && sinceBest >= o.opts.Patience {
				break
			}
		}
	}
	rec.Emit("stage.end", telemetry.Fields{
		"stage": stageIdx, "iters_run": itersRun, "best_loss": bestLoss,
		"sec": time.Since(stageStart).Seconds(),
	})
	if nonFinite != nil {
		return nil, nonFinite
	}
	if !haveBest {
		return mp, nil
	}
	return best, nil
}

// nonFinite records a non-finite loss or gradient at a stage iteration (the
// iter.nonfinite event and the core.nonfinite counter) and returns the
// error that ends the run.
func (o *Optimizer) nonFinite(stage, iter int, what string) error {
	rec := o.opts.Recorder
	rec.Add("core.nonfinite", 1)
	rec.Emit("iter.nonfinite", telemetry.Fields{"stage": stage, "iter": iter, "what": what})
	return fmt.Errorf("%w: %s at iteration %d", ErrNonFinite, what, iter)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite reports whether every element of g is finite.
func allFinite(g *grid.Mat) bool {
	for _, v := range g.Data {
		if !finite(v) {
			return false
		}
	}
	return true
}

// lineSearchStep applies the backtracking rule of [12]: starting from the
// configured learning rate, halve the step until the loss at the candidate
// parameters drops below the current loss (up to 4 halvings); the final
// candidate is committed either way, unless its loss is non-finite. A
// non-finite candidate counts as no decrease and is never committed: when
// the last try is non-finite, mp is left unchanged and the committed step
// is 0. It returns the committed step size and the number of halvings
// taken (for the iteration trace). The context is checked before each
// retry so a cancelled job exits the search without paying for the
// remaining halvings.
func (o *Optimizer) lineSearchStep(ctx context.Context, mp, g *grid.Mat, st Stage, ztS *grid.Mat, curLoss float64) (float64, int, error) {
	rec := o.opts.Recorder
	step := o.opts.LearningRate
	sp := rec.StartSpan("core.update")
	cand := mp.Clone()
	sp.End()
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return 0, try, err
		}
		sp := rec.StartSpan("core.update")
		cand.CopyFrom(mp)
		cand.AddScaled(-step, g)
		sp.End()
		terms, _, err := o.step(cand, st, ztS, false)
		if err != nil {
			return 0, try, err
		}
		ok := finite(terms.Total())
		if ok && (terms.Total() < curLoss || try >= 4) {
			sp := rec.StartSpan("core.update")
			mp.CopyFrom(cand)
			sp.End()
			return step, try, nil
		}
		if try >= 4 {
			return 0, try, nil
		}
		step /= 2
	}
}

// step performs one Algorithm 1 iteration at the stage's level and returns
// the loss terms and, when wantGrad is set, dL/dM′ at the stage's parameter
// resolution (nil otherwise — the loss-only path costs roughly half). Both
// flags evaluate Eq. (5) through CornerLoss: flag 1 simulates the upsampled
// M_s exactly and pools the wafer images back by s (lines 7–9), flag 0
// simulates M_s, smoothing-pooled (line 11), at the working size; each then
// takes dL/dM back through its own resampling adjoint.
func (o *Optimizer) step(mp *grid.Mat, st Stage, ztS *grid.Mat, wantGrad bool) (LossTerms, *grid.Mat, error) {
	rec := o.opts.Recorder
	binary := o.opts.Binary

	// Line 5: M_s = f_binary(M′_s).
	sp := rec.StartSpan("core.binarize")
	ms := binary.Apply(mp)
	sp.End()

	m, s := ms, 1
	resampled := st.HighRes || o.opts.SmoothWindow > 1
	if resampled {
		sp := rec.StartSpan("core.resample")
		if st.HighRes {
			m, s = grid.UpsampleNearest(ms, st.Scale), st.Scale
		} else {
			m = grid.SmoothPool(ms, o.opts.SmoothWindow)
		}
		sp.End()
	}
	terms, g, err := CornerLoss(o.opts.Sim, m, ztS, s, wantGrad, rec)
	if err != nil {
		return LossTerms{}, nil, err
	}
	if wantGrad && resampled {
		sp := rec.StartSpan("core.resample")
		if st.HighRes {
			g = grid.UpsampleNearestAdjoint(g, s)
		} else {
			g = grid.SmoothPoolAdjoint(g, o.opts.SmoothWindow)
		}
		sp.End()
	}
	// g is nil on the loss-only path: the penalties then add no gradient.
	terms.Penalty, err = o.applyPenalties(ms, g)
	if err != nil || !wantGrad {
		return terms, nil, err
	}
	sp = rec.StartSpan("core.binarize")
	g.MulElem(binary.Grad(mp, ms))
	sp.End()
	return terms, g, nil
}
