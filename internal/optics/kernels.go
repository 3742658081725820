package optics

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"repro/internal/grid"
)

// KernelSet is one SOCS decomposition: N_k frequency-domain kernels H_k
// (P×P, DC at the center) with weights w_k, ready for the Hopkins forward
// model of Eq. (3). Weights are jointly normalised so that a fully clear
// mask images to intensity 1.0, which anchors the paper's resist threshold
// I_th = 0.225 across every resolution level.
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
// the configuration. Each kernel set is a subspace iteration on its TCC
// whose block products walk only the TCC's packed nonzeros, four vectors
// per pass (TCC.MatVecBlock). A cold build still takes about 0.6 s at a
// 1024 nm field with 12 kernels and 5 s at paper scale (a 1225-dim TCC
// eigenproblem) on a 2-CPU host, so results are cached per Config for the
// process lifetime.
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

// buildKernelSet assembles the TCC at the given defocus and extracts its
// dominant eigenpairs by subspace iteration with a Rayleigh–Ritz step:
// 41 block products in all (see topEigenpairs).
func buildKernelSet(c Config, defocusNM float64) (*KernelSet, error) {
	t := BuildTCC(c, defocusNM)
	nk := c.NumKernels
	if nk > t.Dim {
		nk = t.Dim
	}
	vals, vecs, err := topEigenpairs(t, nk)
	if err != nil {
		return nil, err
	}
	ks := &KernelSet{P: t.P}
	for k := 0; k < nk; k++ {
		if vals[k] <= 0 {
			break // trailing numerical noise; the TCC is PSD
		}
		h := grid.NewCMat(t.P, t.P)
		copy(h.Data, vecs[k])
		canonicalizePhase(h)
		ks.Kernels = append(ks.Kernels, h)
		ks.Weights = append(ks.Weights, vals[k])
	}
	if len(ks.Kernels) == 0 {
		return nil, fmt.Errorf("optics: TCC has no positive eigenvalues (P=%d)", t.P)
	}
	ks.normalizeOpenFrame()
	return ks, nil
}

// topEigenpairs runs blocked subspace iteration on the TCC and returns the
// nk largest eigenpairs; vecs[k] is the k-th eigenvector (length Dim). Each
// of the 40 steps multiplies the block by T; every fifth step's
// convergence probe multiplies the new block, and that product serves the
// next step, or the Rayleigh–Ritz step after the last probe, so a run
// without an early exit takes 41 block products, not 49.
func topEigenpairs(t *TCC, nk int) (vals []float64, vecs [][]complex128, err error) {
	dim := t.Dim
	block := nk + 8
	if block > dim {
		block = dim
	}
	// Deterministic random start: kernel generation must be reproducible.
	rng := rand.New(rand.NewSource(20130913)) // ICCAD 2013 contest date
	q := make([][]complex128, block)
	z := make([][]complex128, block)
	for k := range q {
		q[k] = make([]complex128, dim)
		z[k] = make([]complex128, dim)
		for i := range q[k] {
			q[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	orthonormalize(q)

	const iters = 40
	prev := make([]float64, nk)
	tq := false // z holds T·Q for the current Q
	for it := 0; it < iters; it++ {
		if !tq {
			t.MatVecBlock(z, q)
		}
		q, z = z, q
		orthonormalize(q)
		tq = it%5 == 4 || it == iters-1
		if tq {
			// Cheap convergence probe on the Rayleigh quotients. Its T·Q
			// is the next step's product, so that step reuses it.
			cur := make([]float64, nk)
			t.MatVecBlock(z, q)
			for k := 0; k < nk; k++ {
				cur[k] = realDot(q[k], z[k])
			}
			maxRel := 0.0
			for k := range cur {
				d := math.Abs(cur[k] - prev[k])
				if r := d / (math.Abs(cur[k]) + 1e-30); r > maxRel {
					maxRel = r
				}
			}
			copy(prev, cur)
			if maxRel < 1e-10 && it > 5 {
				break
			}
		}
	}

	// Rayleigh–Ritz: B = Qᴴ T Q, eigendecompose the small block, rotate Q.
	// The loop always ends on a probe, so z already holds T·Q.
	b := make([]complex128, block*block)
	for i := 0; i < block; i++ {
		for j := 0; j < block; j++ {
			b[i*block+j] = cdot(q[i], z[j])
		}
	}
	bvals, bvecs, err := HermitianEigen(block, b)
	if err != nil {
		return nil, nil, err
	}
	vals = bvals[:nk]
	vecs = make([][]complex128, nk)
	for k := 0; k < nk; k++ {
		v := make([]complex128, dim)
		for bi := 0; bi < block; bi++ {
			c := bvecs[bi*block+k]
			if c == 0 {
				continue
			}
			qv := q[bi]
			for i := range v {
				v[i] += c * qv[i]
			}
		}
		vecs[k] = v
	}
	return vals, vecs, nil
}

// orthonormalize applies modified Gram–Schmidt to the block in place.
// Vectors that collapse to (numerical) zero are re-randomised against a
// fixed stream to keep the block full-rank.
func orthonormalize(q [][]complex128) {
	rng := rand.New(rand.NewSource(987654321))
	for k := range q {
		for attempt := 0; ; attempt++ {
			for j := 0; j < k; j++ {
				proj := cdot(q[j], q[k])
				if proj == 0 {
					continue
				}
				for i := range q[k] {
					q[k][i] -= proj * q[j][i]
				}
			}
			n := math.Sqrt(realDot(q[k], q[k]))
			if n > 1e-12 {
				inv := complex(1/n, 0)
				for i := range q[k] {
					q[k][i] *= inv
				}
				break
			}
			if attempt > 3 {
				panic("optics: orthonormalize could not recover a degenerate block vector")
			}
			for i := range q[k] {
				q[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
}

// cdot returns ⟨a, b⟩ = Σ conj(a_i)·b_i.
func cdot(a, b []complex128) complex128 {
	var s complex128
	for i, v := range a {
		s += complex(real(v), -imag(v)) * b[i]
	}
	return s
}

// realDot returns Re⟨a, b⟩.
func realDot(a, b []complex128) float64 {
	var s float64
	for i, v := range a {
		s += real(v)*real(b[i]) + imag(v)*imag(b[i])
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

// EnergyCapture returns the fraction of the TCC trace captured by the
// retained kernels — a quality measure of the truncated SOCS expansion.
// It must be computed before weight normalisation, so BuildTCC is re-run;
// intended for diagnostics (examples/kernelgen), not hot paths.
func EnergyCapture(c Config, defocusNM float64) (captured, trace float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	t := BuildTCC(c, defocusNM)
	nk := c.NumKernels
	if nk > t.Dim {
		nk = t.Dim
	}
	vals, _, err := topEigenpairs(t, nk)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range vals {
		if v > 0 {
			captured += v
		}
	}
	return captured, t.Trace(), nil
}
