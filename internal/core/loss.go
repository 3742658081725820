// Package core implements the paper's primary contribution: multi-level ILT
// (Algorithm 1). It contains the Eq. (5) loss and its analytic gradient, the
// high-resolution ILT branch (flag = 1: coarse mask parameters, upsampled
// exact simulation, pooled wafer loss), the low-resolution ILT branch
// (flag = 0: everything at reduced size, with the 3×3 smoothing pool of
// Section III-D), the multi-stage scheduler with early stopping, and the
// fast/exact/via recipes evaluated in Section IV.
package core

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/telemetry"
)

// LossTerms breaks Eq. (5) into its components:
// L = L_l2 + L_pvb with L_l2 = ‖Z_out − Z_t‖² and L_pvb = ‖Z_in − Z_out‖².
// (The optimization loss replaces Z_norm with Z_out, as the paper does to
// halve the number of simulations per iteration.) Penalty carries the value
// of any configured mask regularizers (zero in the paper's own flow).
type LossTerms struct {
	L2      float64
	PVB     float64
	Penalty float64
}

// Total returns L = L_l2 + L_pvb (+ penalties).
func (l LossTerms) Total() float64 { return l.L2 + l.PVB + l.Penalty }

// Loss evaluates Eq. (5) and its gradients with respect to the two wafer
// images. All images share one shape (the working resolution of the current
// ILT level):
//
//	dL/dZ_out = 2(Z_out − Z_t) − 2(Z_in − Z_out)
//	dL/dZ_in  = 2(Z_in − Z_out)
func Loss(zIn, zOut, zt *grid.Mat) (LossTerms, *grid.Mat, *grid.Mat) {
	if zIn.W != zOut.W || zIn.H != zOut.H || zt.W != zOut.W || zt.H != zOut.H {
		panic(fmt.Sprintf("core: loss shape mismatch in=%dx%d out=%dx%d t=%dx%d",
			zIn.W, zIn.H, zOut.W, zOut.H, zt.W, zt.H))
	}
	var terms LossTerms
	gOut := grid.NewMat(zOut.W, zOut.H)
	gIn := grid.NewMat(zIn.W, zIn.H)
	for i := range zOut.Data {
		dl2 := zOut.Data[i] - zt.Data[i]
		dpvb := zIn.Data[i] - zOut.Data[i]
		terms.L2 += dl2 * dl2
		terms.PVB += dpvb * dpvb
		gOut.Data[i] = 2*dl2 - 2*dpvb
		gIn.Data[i] = 2 * dpvb
	}
	return terms, gIn, gOut
}

// CornerLoss is the one Eq. (5) chain of every ILT iteration, in both
// Algorithm 1 branches and the level-set baseline: one Sim.ForwardCorners
// call at the inner and outer corners, the sigmoid resist, the wafer images
// pooled down by s (1: none) to zt's resolution, and Loss. With wantGrad it
// also returns dL/dm: each corner's pooling adjoint, resist gradient and
// Sim.Gradient (its field released right after), summed in corner order;
// without it the gradient is nil. The work between simulator calls is timed
// as core.loss on rec.
func CornerLoss(sim *litho.Sim, m, zt *grid.Mat, s int, wantGrad bool, rec *telemetry.Recorder) (LossTerms, *grid.Mat, error) {
	fields, err := sim.ForwardCorners(m, []litho.Corner{sim.Inner(), sim.Outer()}, wantGrad)
	if err != nil {
		return LossTerms{}, nil, err
	}
	sp := rec.StartSpan("core.loss")
	var z, zS [2]*grid.Mat // wafer images at m's resolution and at zt's
	for i, f := range fields {
		z[i] = litho.ResistSigmoid(f.Intensity, litho.Threshold, litho.Alpha)
		zS[i] = z[i]
		if s > 1 {
			zS[i] = grid.AvgPoolDown(z[i], s)
		}
	}
	terms, gIn, gOut := Loss(zS[0], zS[1], zt)
	sp.End()
	if !wantGrad {
		return terms, nil, nil
	}
	var total *grid.Mat
	for i, gZ := range [2]*grid.Mat{gIn, gOut} {
		sp := rec.StartSpan("core.loss")
		if s > 1 {
			gZ = grid.AvgPoolDownAdjoint(gZ, s)
		}
		dI := litho.ResistSigmoidGrad(z[i], litho.Alpha)
		dI.MulElem(gZ)
		sp.End()
		g, err := sim.Gradient(fields[i], dI)
		sim.Release(fields[i])
		if err != nil {
			return LossTerms{}, nil, err
		}
		if total == nil {
			total = g
			continue
		}
		sp = rec.StartSpan("core.loss")
		total.Add(g)
		sp.End()
	}
	return terms, total, nil
}
