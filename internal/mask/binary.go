// Package mask implements the mask parametrisation of pixel-based ILT: the
// differentiable binary functions that squash the unconstrained parameter
// image M′ into (0, 1) transmission values (Section III-C of the paper),
// the final hard binarization (Eq. 12), mask initialisation from the target,
// and the optimization-region options of Fig. 7.
package mask

import (
	"math"

	"repro/internal/grid"
)

// BinaryFunc is a differentiable elementwise map from the optimization
// parameter M′ to the (incompletely) binarized mask M ∈ (0, 1).
type BinaryFunc interface {
	// Apply returns M = f(M′).
	Apply(mp *grid.Mat) *grid.Mat
	// Grad returns dM/dM′ evaluated elementwise, given both M′ and the
	// already-computed M (so sigmoid-style functions avoid re-evaluation).
	Grad(mp, m *grid.Mat) *grid.Mat
}

// Sigmoid is the monotone binary function of Eq. (11):
// M = 1 / (1 + exp(−β(M′ − T_R))). The paper's contribution is the choice
// T_R = 0.5 during optimization (SRAFs emerge in opaque regions) and
// T_R = 0.4 for the final output (keeps more SRAFs after thresholding);
// conventional pixel ILT uses T_R = 0.
type Sigmoid struct {
	Beta float64 // steepness β (paper: 4)
	TR   float64 // translation T_R
}

// DefaultBeta is the steepness used by most pixel-based ILTs and the paper.
const DefaultBeta = 4.0

// Apply implements BinaryFunc.
func (s Sigmoid) Apply(mp *grid.Mat) *grid.Mat {
	out := grid.NewMat(mp.W, mp.H)
	for i, v := range mp.Data {
		x := s.Beta * (v - s.TR)
		if x >= 0 {
			out.Data[i] = 1 / (1 + math.Exp(-x))
		} else {
			e := math.Exp(x)
			out.Data[i] = e / (1 + e)
		}
	}
	return out
}

// Grad implements BinaryFunc: dM/dM′ = β·M·(1−M).
func (s Sigmoid) Grad(_, m *grid.Mat) *grid.Mat {
	out := grid.NewMat(m.W, m.H)
	for i, v := range m.Data {
		out.Data[i] = s.Beta * v * (1 - v)
	}
	return out
}

// Cosine is the periodic binary function of Eq. (10), M = (1 + cos M′)/2,
// used by Poonawala & Milanfar. It is kept as a baseline: its periodicity
// is why the sigmoid replaced it (Section III-C).
type Cosine struct{}

// Apply implements BinaryFunc.
func (Cosine) Apply(mp *grid.Mat) *grid.Mat {
	out := grid.NewMat(mp.W, mp.H)
	for i, v := range mp.Data {
		out.Data[i] = (1 + math.Cos(v)) / 2
	}
	return out
}

// Grad implements BinaryFunc: dM/dM′ = −sin(M′)/2.
func (Cosine) Grad(mp, _ *grid.Mat) *grid.Mat {
	out := grid.NewMat(mp.W, mp.H)
	for i, v := range mp.Data {
		out.Data[i] = -math.Sin(v) / 2
	}
	return out
}

// DefaultFinalThreshold is t_m of Eq. (12).
const DefaultFinalThreshold = 0.5

// Binarize applies the final hard threshold of Eq. (12), producing the
// complete binarized mask M_out ∈ {0, 1}.
func Binarize(m *grid.Mat, tm float64) *grid.Mat {
	return m.Threshold(tm)
}

// FinalOutput produces the manufactured mask from the optimization
// parameter M′ using the paper's two-T_R scheme: the sigmoid is
// re-evaluated with outputTR (0.4 in the paper, smaller than the
// optimization T_R of 0.5 so that weak SRAFs survive) and then hard
// thresholded at t_m.
func FinalOutput(mp *grid.Mat, beta, outputTR, tm float64) *grid.Mat {
	return Binarize(Sigmoid{Beta: beta, TR: outputTR}.Apply(mp), tm)
}
