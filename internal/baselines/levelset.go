package baselines

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/telemetry"
)

// dilate/erode are thin aliases keeping call sites compact.
func dilate(m *grid.Mat, h int) *grid.Mat { return geom.DilateBox(m, h) }
func erode(m *grid.Mat, h int) *grid.Mat  { return geom.ErodeBox(m, h) }

// The level-set evolution's fixed settings.
const (
	// levelSetStep is the evolution step Δt.
	levelSetStep = 1.0
	// levelSetEps is the half-width (in φ units ≈ pixels) of the smoothed
	// Heaviside/delta pair.
	levelSetEps = 1.5
	// levelSetReinit re-initialises φ to a signed distance function every
	// this many iterations.
	levelSetReinit = 20
)

// LevelSetOptions configures the GLS-ILT-style baseline.
type LevelSetOptions struct {
	Sim *litho.Sim
	// Iters is the iteration budget.
	Iters int
	// Region optionally confines evolution (Fig. 7 option 2 in Table III).
	Region *grid.Mat
	// Recorder receives per-iteration trace events (the same "iter" schema
	// as the core optimizer, with stage fixed at 0) and the core.loss phase
	// timer of the Eq. (5) chain (core.CornerLoss). Nil disables them at
	// zero cost. The simulator's phase timers go to Sim.Recorder, which
	// LevelSetILT never sets.
	Recorder *telemetry.Recorder
}

// LevelSetResult mirrors core.Result for the level-set baseline.
type LevelSetResult struct {
	Mask       *grid.Mat
	History    []core.LossTerms
	Iterations int
	ILTSeconds float64
}

// LevelSetILT evolves a signed-distance level-set function φ so that the
// mask M = H_ε(−φ) minimises the Eq. (5) loss:
//
//	φ ← φ − Δt · V · |∇φ|,  V = −(dL/dM) · δ_ε(φ) direction
//
// with periodic signed-distance reinitialisation. The zero level can deform
// and merge but cannot spawn SRAFs far from existing features — the
// structural limitation (visible in GLS-ILT's PVB column) that motivates
// the paper's improved binary function.
func LevelSetILT(opt LevelSetOptions, target *grid.Mat) (*LevelSetResult, error) {
	if opt.Sim == nil {
		return nil, fmt.Errorf("baselines: LevelSetOptions.Sim is required")
	}
	if opt.Iters < 0 {
		return nil, fmt.Errorf("baselines: negative iteration budget %d", opt.Iters)
	}
	if target.W != target.H || target.W&(target.W-1) != 0 {
		return nil, fmt.Errorf("baselines: target must be square power-of-two, got %dx%d", target.W, target.H)
	}
	rec := opt.Recorder
	rec.Emit("stage.start", telemetry.Fields{
		"stage": 0, "scale": 1, "highres": false, "iters": opt.Iters,
	})
	start := time.Now()
	phi := geom.SignedDistance(target)
	res := &LevelSetResult{}

	best := phi.Clone()
	bestLoss := math.Inf(1)

	for it := 0; it < opt.Iters; it++ {
		iterStart := time.Now()
		if it > 0 && it%levelSetReinit == 0 {
			phi = geom.SignedDistance(maskFromPhi(phi, levelSetEps).Threshold(0.5))
		}
		terms, g, err := core.CornerLoss(opt.Sim, maskFromPhi(phi, levelSetEps), target, 1, true, rec)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, terms)
		res.Iterations++
		if terms.Total() < bestLoss {
			bestLoss = terms.Total()
			best.CopyFrom(phi)
		}

		// dL/dφ = −dL/dM · δ_ε(φ); advect with |∇φ| (≈1 near the front).
		gradMag := gradientMagnitude(phi)
		for i := range phi.Data {
			v := g.Data[i] * deltaEps(phi.Data[i], levelSetEps) * gradMag.Data[i]
			if opt.Region != nil && opt.Region.Data[i] < 0.5 {
				continue
			}
			phi.Data[i] += levelSetStep * v
		}
		if rec.Enabled() { // guard: the Fields literal would allocate per iteration
			rec.Emit("iter", telemetry.Fields{
				"stage": 0, "iter": it, "scale": 1,
				"loss": terms.Total(), "l2": terms.L2, "pvb": terms.PVB, "penalty": terms.Penalty,
				"step": levelSetStep, "retries": 0, "sec": time.Since(iterStart).Seconds(),
			})
		}
	}
	res.ILTSeconds = time.Since(start).Seconds()
	rec.Emit("stage.end", telemetry.Fields{
		"stage": 0, "iters_run": res.Iterations, "best_loss": bestLoss,
		"sec": res.ILTSeconds,
	})
	res.Mask = maskFromPhi(best, levelSetEps).Threshold(0.5)
	if opt.Region != nil {
		mask.ApplyRegion(res.Mask, opt.Region)
	}
	return res, nil
}

// maskFromPhi is the smoothed Heaviside M = H_ε(−φ): 1 deep inside
// (φ ≪ 0), 0 far outside, with a sin-smoothed transition of width 2ε.
func maskFromPhi(phi *grid.Mat, eps float64) *grid.Mat {
	m := grid.NewMat(phi.W, phi.H)
	for i, v := range phi.Data {
		x := -v // inside → positive
		switch {
		case x > eps:
			m.Data[i] = 1
		case x < -eps:
			m.Data[i] = 0
		default:
			v := 0.5 * (1 + x/eps + math.Sin(math.Pi*x/eps)/math.Pi)
			// Guard the ±ε endpoints against sin(π) rounding residue.
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			m.Data[i] = v
		}
	}
	return m
}

// deltaEps is the smoothed Dirac delta paired with maskFromPhi:
// δ_ε(φ) = dM/d(−φ) = H′_ε evaluated at −φ.
func deltaEps(phi, eps float64) float64 {
	x := -phi
	if x > eps || x < -eps {
		return 0
	}
	return 0.5 / eps * (1 + math.Cos(math.Pi*x/eps))
}

// gradientMagnitude returns |∇φ| by central differences (one-sided at the
// border).
func gradientMagnitude(phi *grid.Mat) *grid.Mat {
	w, h := phi.W, phi.H
	out := grid.NewMat(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x0, x1 := x-1, x+1
			div := 2.0
			if x0 < 0 {
				x0, div = x, 1
			}
			if x1 >= w {
				x1, div = x, 1
			}
			gx := (phi.At(x1, y) - phi.At(x0, y)) / div
			y0, y1 := y-1, y+1
			div = 2.0
			if y0 < 0 {
				y0, div = y, 1
			}
			if y1 >= h {
				y1, div = y, 1
			}
			gy := (phi.At(x, y1) - phi.At(x, y0)) / div
			out.Set(x, y, math.Hypot(gx, gy))
		}
	}
	return out
}
