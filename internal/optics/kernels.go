package optics

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/grid"
)

// KernelSet is one SOCS decomposition: N_k frequency-domain kernels H_k
// (P×P, DC at the center) with weights w_k, ready for the Hopkins forward
// model of Eq. (3). N_k is Config.NumKernels, or less where the TCC's
// numerical rank is lower (see rankFloor). Weights are jointly normalised
// so that a fully clear mask images to intensity 1.0, which anchors the
// paper's resist threshold I_th = 0.225 across every resolution level.
type KernelSet struct {
	P       int
	Kernels []*grid.CMat
	Weights []float64
}

// Model bundles the nominal-focus and defocus kernel sets, mirroring the two
// kernel files of the ICCAD 2013 contest kit: the nominal set drives Z_norm
// and the +2% dose outer corner, the defocus set the −2% dose inner corner.
type Model struct {
	Config  Config
	Nominal *KernelSet
	Defocus *KernelSet
}

var modelCache sync.Map // Config → *Model

// BuildModel constructs (or returns a cached copy of) the kernel model for
// the configuration. Each kernel set is one solve of the source's Gram
// matrix (see tccEigenpairs), 11–18 ms at the iltbench shape or at paper
// scale on a 2-CPU host; results are cached per Config for the process
// lifetime, because every job and every level of a run shares them.
func BuildModel(c Config) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if v, ok := modelCache.Load(c); ok {
		return v.(*Model), nil
	}
	nom, err := buildKernelSet(c, 0)
	if err != nil {
		return nil, fmt.Errorf("optics: nominal kernels: %w", err)
	}
	def, err := buildKernelSet(c, c.DefocusNM)
	if err != nil {
		return nil, fmt.Errorf("optics: defocus kernels: %w", err)
	}
	m := &Model{Config: c, Nominal: nom, Defocus: def}
	if v, loaded := modelCache.LoadOrStore(c, m); loaded {
		return v.(*Model), nil
	}
	return m, nil
}

// buildKernelSet takes the TCC's dominant eigenpairs at the given defocus
// as the set's kernels and weights. The set is shorter than NumKernels
// where the TCC's numerical rank is lower (see rankFloor).
func buildKernelSet(c Config, defocusNM float64) (*KernelSet, error) {
	vals, vecs, _, err := tccEigenpairs(sourceColumns(c, defocusNM), c.NumKernels)
	if err != nil {
		return nil, err
	}
	ks := &KernelSet{P: c.P(), Weights: vals}
	for _, v := range vecs {
		h := &grid.CMat{W: ks.P, H: ks.P, Data: v}
		canonicalizePhase(h)
		ks.Kernels = append(ks.Kernels, h)
	}
	ks.normalizeOpenFrame()
	return ks, nil
}

// sourceColumns returns the columns of V, the factor of the Hopkins
// transmission cross coefficient (TCC) restricted to the P×P kernel
// support:
//
//	T[i][j] = Σ_s w_s · P(f_i + f_s) · conj(P(f_j + f_s)) = (V Vᴴ)[i][j],
//
// with i, j indexing signed frequencies (fx, fy) ∈ [−h, h]² row-major as
// (fy+h)·P + (fx+h). Column s is √w_s times the pupil shifted by source
// point s, so T has rank at most the number of source points, however
// large its P² dimension.
func sourceColumns(c Config, defocusNM float64) [][]complex128 {
	h := c.kernelHalf()
	p := 2*h + 1
	src := DiscretizeSource(c)
	maxSrcF := 0.0
	for _, s := range src {
		if f := math.Hypot(s.FX, s.FY); f > maxSrcF {
			maxSrcF = f
		}
	}
	pt := buildPupilTable(c, defocusNM, maxSrcF)
	cols := make([][]complex128, len(src))
	for si, s := range src {
		sw := complex(math.Sqrt(s.Weight), 0)
		v := make([]complex128, p*p)
		for fy := -h; fy <= h; fy++ {
			for fx := -h; fx <= h; fx++ {
				v[(fy+h)*p+fx+h] = sw * pt.at(fx, fy, s.FX, s.FY)
			}
		}
		cols[si] = v
	}
	return cols
}

// rankFloor is the smallest eigenvalue, relative to the largest, that a
// kernel set keeps. A kernel is V u / √λ, which divides the rounding in u
// by √λ; below the floor the Gram matrix is numerically rank-deficient
// (small fields, few source points, or fewer support cells than source
// points) and the quotient would be rounding noise, not an eigenvector
// of T.
const rankFloor = 1e-12

// tccEigenpairs returns the leading eigenpairs of T = V Vᴴ, at most nk of
// them and only those above rankFloor, in descending order, plus T's trace.
// They follow exactly from the small Gram matrix G = Vᴴ V (one row and
// column per source point): if G u = λ u with ‖u‖ = 1, then
// T (V u) = λ (V u) and ‖V u‖² = λ, so V u / √λ is a unit eigenvector of
// T with the same eigenvalue, and tr T = tr G.
func tccEigenpairs(cols [][]complex128, nk int) (vals []float64, vecs [][]complex128, trace float64, err error) {
	ns := len(cols)
	g := make([]complex128, ns*ns)
	for i, a := range cols {
		for j := i; j < ns; j++ {
			d := cdot(a, cols[j])
			g[i*ns+j], g[j*ns+i] = d, cmplx.Conj(d)
		}
		trace += real(g[i*ns+i])
	}
	gvals, gvecs, err := HermitianEigen(ns, g)
	if err != nil {
		return nil, nil, 0, err
	}
	if gvals[0] <= 0 {
		return nil, nil, 0, fmt.Errorf("optics: TCC has no positive eigenvalues (%d source points)", ns)
	}
	for k := 0; k < nk && k < ns && gvals[k] > rankFloor*gvals[0]; k++ {
		inv := complex(1/math.Sqrt(gvals[k]), 0)
		h := make([]complex128, len(cols[0]))
		for s, col := range cols {
			u := gvecs[s*ns+k] * inv
			for i, v := range col {
				h[i] += u * v
			}
		}
		vals = append(vals, gvals[k])
		vecs = append(vecs, h)
	}
	return vals, vecs, trace, nil
}

// cdot returns ⟨a, b⟩ = Σ conj(a_i)·b_i.
func cdot(a, b []complex128) complex128 {
	var s complex128
	for i, v := range a {
		s += complex(real(v), -imag(v)) * b[i]
	}
	return s
}

// canonicalizePhase rotates a kernel's arbitrary global phase so its
// largest-magnitude coefficient is real and positive, making generated
// kernel sets bit-reproducible across runs.
func canonicalizePhase(h *grid.CMat) {
	best := 0
	bestMag := 0.0
	for i, v := range h.Data {
		if m := real(v)*real(v) + imag(v)*imag(v); m > bestMag {
			bestMag, best = m, i
		}
	}
	if bestMag == 0 {
		return
	}
	ph := h.Data[best] / complex(cmplx.Abs(h.Data[best]), 0)
	inv := complex(real(ph), -imag(ph))
	for i := range h.Data {
		h.Data[i] *= inv
	}
}

// normalizeOpenFrame rescales the weights so a fully clear mask produces
// aerial intensity exactly 1. For a clear mask the per-kernel amplitude is
// the kernel's DC coefficient, so I_open = Σ w_k·|H_k(0,0)|².
func (ks *KernelSet) normalizeOpenFrame() {
	var open float64
	c := ks.P / 2
	for k, h := range ks.Kernels {
		dc := h.At(c, c)
		open += ks.Weights[k] * (real(dc)*real(dc) + imag(dc)*imag(dc))
	}
	if open <= 1e-12 {
		// Pathological (e.g. single odd kernel); fall back to total energy.
		open = 0
		for k := range ks.Kernels {
			open += ks.Weights[k]
		}
	}
	for k := range ks.Weights {
		ks.Weights[k] /= open
	}
}

// EnergyCapture returns the TCC eigenvalue mass the retained kernels
// capture and the TCC's trace, both from the kernel set's Gram solve; their
// ratio is a quality measure of the truncated SOCS expansion. The weights
// of a built KernelSet are normalised to the open frame, so the raw
// eigenvalues are recomputed here; intended for diagnostics
// (examples/kernelgen), not hot paths.
func EnergyCapture(c Config, defocusNM float64) (captured, trace float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	vals, _, trace, err := tccEigenpairs(sourceColumns(c, defocusNM), c.NumKernels)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range vals {
		captured += v
	}
	return captured, trace, nil
}
