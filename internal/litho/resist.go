package litho

import (
	"math"

	"repro/internal/grid"
)

// Resist parameters follow the ICCAD 2013 contest settings used by the
// paper: a constant-threshold model at I_th = 0.225 for evaluation and a
// sigmoid relaxation (Eq. 9) for optimization.
const (
	// Threshold is the printability threshold I_th of Eq. (1).
	Threshold = 0.225
	// Alpha is the sigmoid steepness α of Eq. (9).
	Alpha = 50.0
)

// ResistBinary applies the constant-threshold photoresist model of Eq. (1):
// Z = 1 where I ≥ I_th, else 0.
func ResistBinary(intensity *grid.Mat, ith float64) *grid.Mat {
	return intensity.Threshold(ith)
}

// ResistSigmoid applies the differentiable resist model of Eq. (9):
// Z = 1 / (1 + exp(−α(I − I_th))).
func ResistSigmoid(intensity *grid.Mat, ith, alpha float64) *grid.Mat {
	z := grid.NewMat(intensity.W, intensity.H)
	for i, v := range intensity.Data {
		z.Data[i] = sigmoid(alpha * (v - ith))
	}
	return z
}

// ResistSigmoidGrad returns dZ/dI = α·Z·(1−Z) element-wise for a wafer image
// already produced by ResistSigmoid.
func ResistSigmoidGrad(z *grid.Mat, alpha float64) *grid.Mat {
	g := grid.NewMat(z.W, z.H)
	for i, v := range z.Data {
		g.Data[i] = alpha * v * (1 - v)
	}
	return g
}

func sigmoid(x float64) float64 {
	// Branch keeps exp from overflowing for very negative x.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
