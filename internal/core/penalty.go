package core

import (
	"fmt"

	"repro/internal/grid"
)

// Penalty is an optional differentiable regularizer on the (incompletely)
// binarized mask M_s, added to the Eq. (5) loss. The related work the paper
// compares against regularizes this way: Neural-ILT [4] adds a mask
// complexity term and DevelSet [5] a curvature term. The multi-level flow
// itself does not need them (pooling plays that role), but they are
// available for ablations and for running those baselines faithfully.
type Penalty interface {
	// Name identifies the penalty in traces.
	Name() string
	// Eval returns the penalty value and its gradient with respect to the
	// mask image it was given.
	Eval(m *grid.Mat) (float64, *grid.Mat)
}

// TVPenalty is an anisotropic total-variation penalty in the smoothed form
//
//	P = λ · Σ [ (M(x+1,y) − M(x,y))² + (M(x,y+1) − M(x,y))² ],
//
// penalising jagged contours and isolated pixels — a differentiable proxy
// for the shot-count/complexity terms of [4].
type TVPenalty struct {
	// Lambda is the penalty weight.
	Lambda float64
}

// Name implements Penalty.
func (TVPenalty) Name() string { return "tv" }

// Eval implements Penalty.
func (p TVPenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	g := grid.NewMat(m.W, m.H)
	var total float64
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := m.At(x, y)
			if x+1 < m.W {
				d := m.At(x+1, y) - v
				total += d * d
				g.Data[y*m.W+x] -= 2 * d
				g.Data[y*m.W+x+1] += 2 * d
			}
			if y+1 < m.H {
				d := m.At(x, y+1) - v
				total += d * d
				g.Data[y*m.W+x] -= 2 * d
				g.Data[(y+1)*m.W+x] += 2 * d
			}
		}
	}
	g.Scale(p.Lambda)
	return p.Lambda * total, g
}

// CurvaturePenalty penalises boundary curvature via the discrete Laplacian,
//
//	P = λ · Σ (ΔM)²,   ΔM = 4M(x,y) − M(x±1,y) − M(x,y±1),
//
// the quadratic form behind the curvature term of [5]; straight edges have
// zero Laplacian inside/outside and constant response along the edge, while
// corners and wiggles are charged quadratically.
type CurvaturePenalty struct {
	// Lambda is the penalty weight.
	Lambda float64
}

// Name implements Penalty.
func (CurvaturePenalty) Name() string { return "curvature" }

// Eval implements Penalty.
func (p CurvaturePenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	lap := laplacian(m)
	var total float64
	for _, v := range lap.Data {
		total += v * v
	}
	// Gradient of Σ(Lm)² is 2·Lᵀ(Lm); the 5-point Laplacian with replicated
	// borders is self-adjoint up to boundary terms, which the replicated
	// stencil keeps consistent.
	g := laplacian(lap)
	g.Scale(2 * p.Lambda)
	return p.Lambda * total, g
}

// laplacian applies the 5-point stencil with replicated borders.
func laplacian(m *grid.Mat) *grid.Mat {
	out := grid.NewMat(m.W, m.H)
	at := func(x, y int) float64 {
		if x < 0 {
			x = 0
		}
		if x >= m.W {
			x = m.W - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= m.H {
			y = m.H - 1
		}
		return m.Data[y*m.W+x]
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			out.Data[y*m.W+x] = 4*at(x, y) - at(x-1, y) - at(x+1, y) - at(x, y-1) - at(x, y+1)
		}
	}
	return out
}

// applyPenalties evaluates every configured penalty on the binarized mask
// and returns the total penalty value for the loss trace. Unless gMask is
// nil (a line-search trial's loss-only step), it folds the gradients into
// gMask (the dL/dM_s accumulator).
func (o *Optimizer) applyPenalties(ms *grid.Mat, gMask *grid.Mat) (float64, error) {
	if len(o.opts.Penalties) == 0 {
		return 0, nil
	}
	sp := o.opts.Recorder.StartSpan("core.penalty")
	defer sp.End()
	var total float64
	for _, p := range o.opts.Penalties {
		v, g := p.Eval(ms)
		total += v
		if gMask == nil {
			continue
		}
		if g.W != gMask.W || g.H != gMask.H {
			return 0, fmt.Errorf("core: penalty %q gradient %dx%d does not match mask %dx%d",
				p.Name(), g.W, g.H, gMask.W, gMask.H)
		}
		gMask.Add(g)
	}
	return total, nil
}
