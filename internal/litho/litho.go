// Package litho implements the forward lithography model of the paper:
// the Hopkins/SOCS aerial-image computation in its exact (Eq. 3),
// frequency-truncated low-resolution (Eq. 7) and approximate low-resolution
// (Eq. 8) forms, the constant-threshold (Eq. 1) and sigmoid (Eq. 9) resist
// models, the three process corners used for PVBand, and the adjoint of the
// aerial image with respect to the mask, which powers every gradient in the
// ILT optimizer.
//
// Normalisation convention (see DESIGN.md): the forward FFT is unnormalised
// and the inverse carries 1/n², which combined with open-frame-normalised
// kernels makes the aerial intensity invariant across resolution levels —
// the same I_th applies at every scale factor, exactly as Algorithm 1
// assumes.
//
// Concurrency (see DESIGN.md, "Concurrency model"): the per-kernel SOCS
// loops of Forward, ForwardEq7 and Gradient fan out across Workers
// goroutines with pool-backed private scratch, and every cross-kernel
// reduction is a strictly k-ordered fold of precomputed per-kernel
// contributions — so the result is bit-identical for every worker count,
// including the serial path.
//
// FFT engine (see DESIGN.md, "FFT engine" and "FFT engine v2"): by default
// the simulator runs the batched engine — all kernel products and pruned
// inverse transforms of one SOCS call advance through a single cache-blocked
// pass, with the inverse normalisation and SOCS scale folded into the
// multiply, the mask spectrum's P×P kernel band from the two-for-one
// real-input forward (identical to rounding), and the intensity fold fused
// into the column transforms. The gradient runs every kernel's adjoint on
// the grid g = min(m, L), L the smallest power of two above 2P−1: a patch
// reads F(dLdI) only on its (2P−1)² band, as Eq. 7's kernels read the mask
// spectrum only on its P×P one. Its per-kernel adjoint transforms are
// output pruned: only the butterflies feeding the P×P kernel band run
// (fft.Plan2.AdjointPatch, bit-identical to the dense transform), and its
// final inverse is input pruned from the P×P band
// (fft.Plan2.InverseBandReal). Amplitudes are kept for it only at m ≤ L.
// Sim.Engine selects between this default and the dense EngineReference,
// the oracle the batch reproduces bit for bit on the same spectrum — the
// gradient above L to rounding.
package litho

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// FFTEngine selects the FFT execution paths of a Sim. The kernels populate
// only a P×P band of each product spectrum, so the production engine prunes
// the per-kernel transforms to the rows and butterfly blocks that can carry
// data, and packs the real mask's forward transform two-for-one. The dense
// reference engine runs every transform in full; it is the oracle the
// equivalence tests compare against. Pruning is bit-identical to the dense
// transforms, the real-input packing only to rounding.
type FFTEngine int

const (
	// EngineBatch (the default) runs the whole kernel set through one
	// batched multiply + pruned inverse (fft.MulRowsBatch/InverseColumns):
	// shared twiddle loads, four rows/columns in lockstep, the intensity
	// fold fused into the column pass; its adjoint patches are output
	// pruned (fft.Plan2.AdjointPatch) and run on the grid min(m, L),
	// L = adjointGrid(P). On the same mask spectrum every output has
	// EngineReference's bits, except the gradient above L, which agrees
	// to rounding, as the ForwardRealBand mask spectrum agrees with the
	// dense one. See DESIGN.md, "FFT engine v2".
	EngineBatch FFTEngine = iota
	// EngineReference is the dense engine: the dense mask forward, a serial
	// per-kernel ApplyKernel + InverseNoNorm loop with an ascending-k
	// intensity fold, and the dense adjoint transforms.
	EngineReference
)

// String returns the engine's name, which keys the FFT-engine sweep's
// report.
func (e FFTEngine) String() string {
	switch e {
	case EngineBatch:
		return "batch"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("FFTEngine(%d)", int(e))
}

// Sim is the lithography process of one optical model: it runs the
// forward and adjoint simulations and the binary print (Print), and its
// Model's nominal and defocus kernel sets give the process corners
// (Nominal, Inner, Outer). It is safe for concurrent use.
type Sim struct {
	Model *optics.Model
	// Workers bounds the per-kernel fan-out of the SOCS loops; ≤ 0 selects
	// runtime.GOMAXPROCS(0). Results are bit-identical for every value.
	// Set it before sharing the Sim across goroutines.
	Workers int
	// Engine selects the FFT execution paths; the zero value is the
	// batched default. Set it before sharing the Sim across goroutines.
	Engine FFTEngine
	// Recorder receives phase timers (litho.fft_forward, litho.socs,
	// litho.fft_inverse, litho.adjoint) and simulation counters. Nil (the
	// default) disables telemetry at zero cost — the instrumented paths
	// perform no extra allocations. Set it before sharing the Sim across
	// goroutines.
	Recorder *telemetry.Recorder
}

// The FFT-plan cache and scratch pools shared by every Sim in the process.
// The ILT server builds one Sim per job, so per-Sim pools would lease every
// job fresh buffers and leave the previous job's to the GC, and per-Sim
// plans would rebuild every job's twiddle tables. The plans are pure
// functions of their size; the pools are keyed by size and their contents
// are undefined. All are safe for concurrent use.
var (
	plans    fft.PlanCache      // 2-D FFT plans, built once per size
	cscratch grid.CMatPool      // complex scratch and kept amplitudes
	mscratch grid.MatPool       // real per-kernel intensity contributions
	kscratch grid.CMatSlicePool // per-call []*CMat work lists (patches, rebuilt amplitudes)
)

// CachedPlans reports how many plan sizes the process-wide cache holds.
func CachedPlans() int { return plans.Sizes() }

// NewSim creates a simulator over a built kernel model.
func NewSim(model *optics.Model) *Sim {
	return &Sim{Model: model}
}

// Plan returns (building if needed) the 2-D FFT plan for size m. Plan
// construction happens exactly once per size per process, no matter how
// many Sims or goroutines ask concurrently; the build or hit is counted on
// the calling Sim's Recorder.
func (s *Sim) Plan(m int) (*fft.Plan2, error) {
	var t0 time.Time
	if s.Recorder.Enabled() {
		t0 = time.Now()
	}
	plan, built, err := plans.Get(m)
	if built {
		s.Recorder.Add("litho.plan_builds", 1)
		if !t0.IsZero() {
			// Time spent waiting on the singleflight build, as seen by this
			// requester (losers of the race observe their wait, which is the
			// latency the caller actually paid).
			s.Recorder.Histogram("fft.plan_build", telemetry.HistDuration).ObserveDuration(time.Since(t0))
		}
	} else if err == nil {
		s.Recorder.Add("litho.plan_hits", 1)
	}
	return plan, err
}

// workers resolves the simulator's fan-out: Workers, or
// runtime.GOMAXPROCS(0) when that is ≤ 0.
func (s *Sim) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// Field is the retained state of one forward simulation, sufficient to run
// the adjoint pass. Spec is the P×P kernel band of the mask spectrum
// (centered: cell (fy+h, fx+h) holds frequency (fx, fy), h = P/2), the
// only part of the spectrum a kernel reads, on both engines; P is the
// largest kernel support of the call, and a kernel set with a smaller one
// reads its centered sub-band. The fields of one ForwardCorners call share
// Spec, read-only. Amps is populated only when the forward was told a gradient
// follows and the grid is at most L = adjointGrid(P); they are leased from
// a process-wide pool, shared by the fields of one kernel set, and returned
// by Sim.Release. Without them the gradient rebuilds every amplitude from
// Spec on its grid — at m ≤ L with the kept ones' bits. Every kept
// amplitude is in fft's tiled layout, the one fft.BatchInverse.
// InverseColumns writes and fft.Plan2.AdjointPatch reads, on both engines;
// fft.Untile4 gives it row-major.
type Field struct {
	M         int          // working grid size
	Spec      *grid.CMat   // P×P band of the unnormalised mask FFT, centered
	Amps      []*grid.CMat // per-kernel amplitude fields A_k (tiled), or nil
	Intensity *grid.Mat    // aerial image including the dose factor
	Dose      float64
	KS        *optics.KernelSet

	lease     *ampLease // the pooled Amps, shared with same-kernel-set fields
	truncated bool      // from ForwardEq7 at a scale above 1: no adjoint
}

// ampLease is one kernel set's kept amplitudes from one ForwardCorners
// call: A_k does not depend on dose, so every corner of the kernel set
// reads the same buffers, and the last Release returns them.
type ampLease struct {
	amps []*grid.CMat
	refs atomic.Int32 // fields still holding amps
}

// leaseAmps leases nk m×m amplitude buffers and hands them to fields.
func leaseAmps(fields []*Field, nk, m int) []*grid.CMat {
	l := &ampLease{amps: make([]*grid.CMat, nk)}
	for k := range l.amps {
		//lint:ignore scratchalias kept amplitudes are pool-leased on purpose: the fields hold them until Sim.Release, whose contract is that nobody reads a released field's amplitudes
		l.amps[k] = cscratch.Get(m, m)
	}
	l.refs.Store(int32(len(fields)))
	for _, f := range fields {
		f.Amps, f.lease = l.amps, l
	}
	return l.amps
}

// Release returns the field's kept amplitudes to the pool and sets Amps to
// nil. The fields of one kernel set from one ForwardCorners call share
// their amplitudes; the last of them to be released returns the buffers.
// The caller must not keep references to a released field's amplitudes.
// Releasing a field without amplitudes, or a second time, does nothing; a
// later Gradient of a released field recomputes the amplitudes from Spec
// with the same bits.
func (s *Sim) Release(f *Field) {
	l := f.lease
	f.Amps, f.lease = nil, nil
	if l == nil || l.refs.Add(-1) != 0 {
		return
	}
	for k, a := range l.amps {
		cscratch.Put(a)
		l.amps[k] = nil
	}
}

// minGrid is the smallest grid the simulator accepts: the batched engine
// transforms rows and columns in groups of four.
const minGrid = 4

func (s *Sim) checkMask(mask *grid.Mat, p int) error {
	if mask.W != mask.H {
		return fmt.Errorf("litho: mask must be square, got %dx%d", mask.W, mask.H)
	}
	if mask.W&(mask.W-1) != 0 {
		return fmt.Errorf("litho: mask size %d is not a power of two", mask.W)
	}
	if mask.W < minGrid {
		return fmt.Errorf("litho: mask size %d below the minimum grid %d", mask.W, minGrid)
	}
	if mask.W < p {
		return fmt.Errorf("litho: mask size %d smaller than kernel support %d", mask.W, p)
	}
	return nil
}

// maskSpectrum computes the support×support kernel band of the mask's
// unnormalised FFT (the Field.Spec layout): the batch engine computes only
// the band, packing the real input two-for-one (ForwardRealBand, on the
// simulator's workers), and the reference runs the dense transform and
// crops the band. Its butterflies go to litho.fft_forward_butterflies.
func (s *Sim) maskSpectrum(plan *fft.Plan2, mask *grid.Mat, support int) *grid.CMat {
	sp := s.Recorder.StartSpan("litho.fft_forward")
	defer sp.End()
	reference := s.Engine == EngineReference
	bf := plan.ForwardRealBandButterflies(support)
	if reference {
		bf = plan.Butterflies()
	}
	s.Recorder.Add("litho.fft_forward_butterflies", bf)
	spec := grid.NewCMat(support, support)
	if reference {
		dense := cscratch.Get(mask.W, mask.H)
		dense.SetReal(mask)
		plan.Forward(dense)
		fft.CropBand(spec, dense)
		cscratch.Put(dense)
		return spec
	}
	plan.ForwardRealBand(spec, mask, s.workers())
	return spec
}

// accumulateSOCS runs one SOCS pass of a kernel set, shared by
// ForwardCorners and ForwardEq7: amplitude A_k = F⁻¹(scale·H_k ⊙ spec) at
// size m, and for every field (one dose each, all of the same kernel set)
// intensity += dose·w_k·|A_k|². Both engines fold the inverse-FFT 1/m²
// normalisation into the kernel multiply through the same expression
// (fft.FoldInverseScale), so each amplitude buffer is touched one fewer
// time and the engines' products agree bit for bit. Each intensity is
// folded per element in ascending k, exactly as a pass of its own would
// fold it, so sharing the pass between doses keeps every bit. With
// keepAmps the amplitudes are leased (leaseAmps) and shared by the fields.
//
// EngineBatch hands the whole kernel set to fft.MulRowsBatch /
// InverseColumns: one cache-blocked pass whose workers split the kernels
// (row pass) and disjoint column blocks (column pass), with the intensity
// folds fused into the column transforms in ascending k — so every worker
// count produces the same bits, and they are the reference's bits for the
// same spectrum. EngineReference is the oracle: a serial loop of
// ApplyKernel, InverseNoNorm and, per field, the ascending-k
// AbsSqScaledInto + Add fold, row-major, tiling (fft.Tile4) only the
// amplitudes it keeps.
//
// Telemetry: litho.socs covers the kernel multiply (on the batch, with the
// row transforms) and litho.fft_inverse the inverse transforms (on the
// batch, the column pass with the fused intensity folds), both recorded on
// the calling goroutine at any worker count. litho.kernel_ffts counts the
// kernel transforms run, once per pass whatever the number of doses, and
// their butterflies go to litho.fft_inverse_butterflies, an exact,
// host-independent work count.
func (s *Sim) accumulateSOCS(fields []*Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool) {
	ks := fields[0].KS
	nk := len(ks.Kernels)
	scale = fft.FoldInverseScale(scale, m, m)
	s.Recorder.Add("litho.fft_inverse_butterflies", int64(nk)*inverseButterflies(plan, s.Engine != EngineReference, ks.P))
	s.Recorder.Add("litho.kernel_ffts", int64(nk))
	var amps []*grid.CMat
	if keepAmps {
		amps = leaseAmps(fields, nk, m)
	}

	if s.Engine != EngineReference {
		s.batchSOCS(fields, plan, spec, scale, amps, min(s.workers(), nk))
		return
	}

	// The reference: one row-major amplitude buffer and one contribution
	// buffer recycled across all kernels — O(1) scratch at any grid size.
	contrib := mscratch.Get(m, m)
	amp := cscratch.Get(m, m)
	for k, h := range ks.Kernels {
		sp := s.Recorder.StartSpan("litho.socs")
		fft.ApplyKernel(amp, spec, h, m, scale)
		sp.End()
		spi := s.Recorder.StartSpan("litho.fft_inverse")
		plan.InverseNoNorm(amp)
		spi.End()
		sp = s.Recorder.StartSpan("litho.socs")
		for _, f := range fields {
			amp.AbsSqScaledInto(contrib, f.Dose*ks.Weights[k])
			f.Intensity.Add(contrib)
		}
		if k < len(amps) {
			fft.Tile4(amps[k], amp)
		}
		sp.End()
	}
	cscratch.Put(amp)
	mscratch.Put(contrib)
}

// batchSOCS is the EngineBatch lane of accumulateSOCS: the kernel multiply
// and pruned inverse row transforms for all kernels run in one batched pass
// (litho.socs span), then the column transforms with one fused ascending-k
// intensity fold per field (litho.fft_inverse span), writing the amplitudes
// into amps when non-nil. scale must already carry the folded 1/m²
// (accumulateSOCS does this).
func (s *Sim) batchSOCS(fields []*Field, plan *fft.Plan2, spec *grid.CMat, scale complex128, amps []*grid.CMat, workers int) {
	ks := fields[0].KS
	sp := s.Recorder.StartSpan("litho.socs")
	b := plan.MulRowsBatch(spec, ks.Kernels, scale, workers)
	folds := make([]fft.Fold, len(fields))
	for i, f := range fields {
		weights := make([]float64, len(ks.Kernels))
		for k := range weights {
			weights[k] = f.Dose * ks.Weights[k]
		}
		folds[i] = fft.Fold{Weights: weights, Intensity: f.Intensity}
	}
	sp.End()
	spi := s.Recorder.StartSpan("litho.fft_inverse")
	b.InverseColumns(amps, folds)
	spi.End()
}

// Forward runs the exact SOCS simulation (Eq. 3) of the mask at its own
// resolution: I = dose · Σ_k w_k |F⁻¹(H_k ⊙ F(M))|². With a mask already
// downsampled by the caller this is exactly Eq. (8) of the paper — the
// approximation the low-resolution ILT optimises against. It is the
// one-corner case of ForwardCorners; keepAmps means a gradient will follow.
func (s *Sim) Forward(mask *grid.Mat, ks *optics.KernelSet, dose float64, keepAmps bool) (*Field, error) {
	fields, err := s.ForwardCorners(mask, []Corner{{KS: ks, Dose: dose}}, keepAmps)
	if err != nil {
		return nil, err
	}
	return fields[0], nil
}

// ForwardCorners runs the exact SOCS simulation of one mask at several
// process corners and returns one field per corner, in order. It computes
// the mask spectrum once (the fields share it, read-only) and runs one SOCS
// pass per distinct kernel set, folding one intensity per corner dose — the
// nominal and outer corners share the nominal kernel set, and a dose
// ladder shares one pass. Every field has the bits a Forward of its corner
// alone would give it.
//
// Set keepAmps when a gradient will follow. Each kernel set's amplitudes
// are then kept, leased from the pool and shared by its fields, if the grid
// is at most L = adjointGrid(P): nk·m²·16 B, at most 20.25 MiB for the 81
// kernels of the largest set the optics package builds at L = 128. Above L
// the batch gradient runs on the L grid and needs no m×m amplitude, and
// Field.Amps stays nil. Release every field once its gradients are done, so
// a lease returns to the pool (above L Release does nothing).
// litho.forward_sims counts one per corner image.
func (s *Sim) ForwardCorners(mask *grid.Mat, corners []Corner, keepAmps bool) ([]*Field, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("litho: no corners to simulate")
	}
	for _, c := range corners {
		if err := s.checkMask(mask, c.KS.P); err != nil {
			return nil, err
		}
	}
	m := mask.W
	plan, err := s.Plan(m)
	if err != nil {
		return nil, err
	}
	support := 0
	for _, c := range corners {
		support = max(support, c.KS.P)
	}
	spec := s.maskSpectrum(plan, mask, support)

	fields := make([]*Field, len(corners))
	for i, c := range corners {
		fields[i] = &Field{M: m, Spec: spec, Dose: c.Dose, KS: c.KS, Intensity: grid.NewMat(m, m)}
	}
next:
	for i, c := range corners {
		for _, e := range corners[:i] {
			if e.KS == c.KS {
				continue next // folded into the pass of e's kernel set
			}
		}
		// Capacity 1: a second field of the kernel set copies the group
		// out of fields instead of overwriting it.
		group := fields[i : i+1 : i+1]
		for j := i + 1; j < len(corners); j++ {
			if corners[j].KS == c.KS {
				group = append(group, fields[j])
			}
		}
		s.accumulateSOCS(group, plan, spec, m, 1, keepAmps && m <= adjointGrid(c.KS.P))
	}
	s.Recorder.Add("litho.forward_sims", int64(len(corners)))
	return fields, nil
}

// ForwardEq7 runs the frequency-truncated low-resolution simulation of
// Eq. (7): the mask stays at full resolution n, its spectrum is multiplied
// by each kernel, truncated to m = n/s with the 1/s² scale, and
// inverse-transformed at size m. The result equals the exact aerial image
// sampled every s pixels (the kernel support lies inside the retained band).
// The truncation needs no step of its own: the P×P kernel band of the n×n
// spectrum is all the kernels read, at m as at n.
func (s *Sim) ForwardEq7(mask *grid.Mat, scale int, ks *optics.KernelSet, dose float64) (*Field, error) {
	if err := s.checkMask(mask, ks.P); err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("litho: scale %d must be ≥ 1", scale)
	}
	n := mask.W
	if n%scale != 0 {
		return nil, fmt.Errorf("litho: mask size %d not divisible by scale %d", n, scale)
	}
	m := n / scale
	if m < minGrid {
		return nil, fmt.Errorf("litho: reduced size %d below the minimum grid %d", m, minGrid)
	}
	if m < ks.P {
		return nil, fmt.Errorf("litho: reduced size %d smaller than kernel support %d", m, ks.P)
	}
	if m&(m-1) != 0 {
		return nil, fmt.Errorf("litho: reduced size %d is not a power of two", m)
	}
	planN, err := s.Plan(n)
	if err != nil {
		return nil, err
	}
	planM, err := s.Plan(m)
	if err != nil {
		return nil, err
	}
	spec := s.maskSpectrum(planN, mask, ks.P)

	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m), truncated: scale > 1}
	sc := complex(1/float64(scale*scale), 0)
	s.accumulateSOCS([]*Field{f}, planM, spec, m, sc, false)
	s.Recorder.Add("litho.eq7_sims", 1)
	return f, nil
}

// Gradient computes dL/dM for a Field produced by Forward, given dL/dI at
// the working resolution:
//
//	dL/dM = Σ_k 2·w_k·dose · Re[ F⁻¹( conj(H_k) ⊙ F( dLdI ⊙ A_k ) ) ].
//
// Each kernel contributes only the P×P band of F(dLdI ⊙ A_k), its patch.
// The patches are computed in parallel and folded into a frequency-domain
// accumulator in ascending k, so only one final inverse FFT is needed and
// the result is bit-identical for every worker count. Gradient does not
// consume the field: it may run any number of times on one field, before
// or after Release.
//
// The batch engine runs one lane (batchGradient): every patch on the grid
// g = min(m, L), L = adjointGrid(P), with the output-pruned
// fft.Plan2.AdjointPatch, from the field's kept amplitudes or all of them
// rebuilt at g, and the final inverse input pruned from the P×P
// accumulator (fft.Plan2.InverseBandReal). At m ≤ L every bit is the
// reference's; above L the lane is exact up to rounding, within 1e-12 of
// the reference's gradient, relative. EngineReference (referenceGradient)
// is the dense oracle.
// The call adds its transform butterflies to litho.adjoint_butterflies,
// and litho.kernel_ffts counts the amplitudes it rebuilds.
func (s *Sim) Gradient(f *Field, dLdI *grid.Mat) (*grid.Mat, error) {
	if dLdI.W != f.M || dLdI.H != f.M {
		return nil, fmt.Errorf("litho: dLdI size %dx%d != field size %d", dLdI.W, dLdI.H, f.M)
	}
	if f.truncated {
		// The adjoint of Eq. 7's truncation is not implemented (the
		// optimizer only differentiates Forward).
		return nil, fmt.Errorf("litho: gradient of a truncated (Eq. 7) field is not supported")
	}
	plan, err := s.Plan(f.M)
	if err != nil {
		return nil, err
	}
	if s.Engine == EngineReference {
		return s.referenceGradient(f, plan, dLdI), nil
	}
	return s.batchGradient(f, plan, dLdI)
}

// batchGradient is Gradient on the batch engine, which runs every kernel's
// patch on the grid g = min(m, L). With h = P/2, G = F_m(dLdI) and
// S_k = H_k ⊙ Spec/m² (the inverse normalisation folded in), the patch
// reads
//
//	F_m(dLdI ⊙ A_k)[f] = Σ_{|q|≤h} S_k[q]·G[f−q],   |f| ≤ h,
//
// which touches G only on |f−q| ≤ 2h. At m ≤ L the lane reads dLdI itself.
// Above L it takes that (2P−1)² band of G at m (fft.Plan2.ForwardRealBand)
// and inverts it unnormalised at L (InverseBandReal: d, real because the
// band is Hermitian), and the amplitudes a_k, the unnormalised inverses of
// S_k at L, are A_k sampled every m/L px. F_L(d ⊙ a_k)[f] = L²·Σ S_k[q]·G[u]
// over q + u ≡ f (mod L), and L > 4h leaves only u = f − q, so the patch is
// the m-grid one with the weight divided by L²: exact up to rounding, not
// bit for bit. The amplitudes are the field's kept ones (only at m ≤ L) or
// all nk rebuilt at g through one MulRowsBatch/InverseColumns, which
// transforms each kernel on its own, so at m ≤ L a rebuilt amplitude has
// the kept one's bits.
func (s *Sim) batchGradient(f *Field, plan *fft.Plan2, dLdI *grid.Mat) (*grid.Mat, error) {
	ks, m := f.KS, f.M
	p, nk := ks.P, len(ks.Kernels)
	planG := plan
	if l := adjointGrid(p); m > l {
		var err error
		if planG, err = s.Plan(l); err != nil {
			return nil, err
		}
	}
	sp := s.Recorder.StartSpan("litho.adjoint")
	defer sp.End()
	s.Recorder.Add("litho.adjoint_calls", 1)
	s.Recorder.Add("litho.adjoint_butterflies", batchAdjointButterflies(plan, planG, f))
	g, workers := planG.W(), min(s.workers(), nk)
	d := dLdI // dL/dI on the g grid
	if g < m {
		band := cscratch.Get(2*p-1, 2*p-1)
		plan.ForwardRealBand(band, dLdI, s.workers())
		d = mscratch.Get(g, g)
		planG.InverseBandReal(d, band, s.workers())
		cscratch.Put(band)
	}
	amps := f.Amps
	var ampsp *[]*grid.CMat // the rebuilt amplitudes' lease, nil when kept
	if amps == nil {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
		ampsp, amps = kscratch.Get(nk)
		for k := range amps {
			amps[k] = cscratch.Get(g, g)
		}
		planG.MulRowsBatch(f.Spec, ks.Kernels, fft.FoldInverseScale(1, m, m), workers).InverseColumns(amps, nil)
	}
	patchesp, patches := kscratch.Get(nk)
	grid.ParallelFor(workers, nk, func(k int) {
		w := fft.FoldInverseScale(complex(2*ks.Weights[k]*f.Dose, 0), m, m)
		if g < m {
			w = fft.FoldInverseScale(w, g, g)
		}
		patches[k] = planG.AdjointPatch(cscratch.Get(p, p), d, amps[k], ks.Kernels[k], w)
	})
	if ampsp != nil {
		for _, a := range amps {
			cscratch.Put(a)
		}
		kscratch.Put(ampsp)
	}
	if g < m {
		mscratch.Put(d)
	}
	// The patches populate only the P×P band of the frequency accumulator,
	// so the accumulator is that band and the input-pruned inverse writes
	// the real part straight out: every band cell sees the reference's adds
	// in the same order, and the output has the bits of its dense Zero,
	// AddKernelPatch, InverseNoNorm and Real.
	acc := cscratch.Get(p, p)
	acc.Zero()
	for _, patch := range patches {
		for i, v := range patch.Data {
			acc.Data[i] += v
		}
		cscratch.Put(patch)
	}
	kscratch.Put(patchesp)
	out := grid.NewMat(m, m)
	plan.InverseBandReal(out, acc, s.workers())
	cscratch.Put(acc)
	return out, nil
}

// referenceGradient is Gradient on EngineReference, the dense oracle. It
// works row-major: per kernel it untiles a kept amplitude or recomputes it
// densely and takes the patch from the dense transform of the product
// (adjointPatch); it folds the patches into an m×m accumulator in
// ascending k and inverts it densely.
func (s *Sim) referenceGradient(f *Field, plan *fft.Plan2, dLdI *grid.Mat) *grid.Mat {
	sp := s.Recorder.StartSpan("litho.adjoint")
	defer sp.End()
	s.Recorder.Add("litho.adjoint_calls", 1)
	nk := len(f.KS.Kernels)
	transforms := int64(nk + 1) // the patches' and the fold's
	if f.Amps == nil {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
		transforms += int64(nk)
	}
	s.Recorder.Add("litho.adjoint_butterflies", transforms*plan.Butterflies())
	ampScale := fft.FoldInverseScale(1, f.M, f.M)
	patchesp, patches := kscratch.Get(nk)
	grid.ParallelFor(min(s.workers(), nk), nk, func(k int) {
		amp := cscratch.Get(f.M, f.M)
		if f.Amps != nil {
			fft.Untile4(amp, f.Amps[k])
		} else {
			fft.ApplyKernel(amp, f.Spec, f.KS.Kernels[k], f.M, ampScale)
			plan.InverseNoNorm(amp)
		}
		patches[k] = s.adjointPatch(f, plan, amp, dLdI, k)
		cscratch.Put(amp)
	})
	acc := cscratch.Get(f.M, f.M)
	acc.Zero()
	for _, patch := range patches {
		fft.AddKernelPatch(acc, patch)
		cscratch.Put(patch)
	}
	kscratch.Put(patchesp)
	plan.InverseNoNorm(acc)
	out := acc.Real()
	cscratch.Put(acc)
	return out
}

// adjointPatch computes one kernel's adjoint contribution on the reference
// engine: B_k = dLdI ⊙ A_k, its dense forward transform, and the P×P
// frequency patch weighted by 2·w_k·dose with the final inverse's 1/m²
// folded in.
func (s *Sim) adjointPatch(f *Field, plan *fft.Plan2, amp *grid.CMat, dLdI *grid.Mat, k int) *grid.CMat {
	prod := cscratch.Get(f.M, f.M)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(dLdI.Data[i], 0)
	}
	plan.Forward(prod)
	w := fft.FoldInverseScale(complex(2*f.KS.Weights[k]*f.Dose, 0), f.M, f.M)
	patch := fft.KernelAdjointPatch(cscratch.Get(f.KS.P, f.KS.P), prod, f.KS.Kernels[k], w)
	cscratch.Put(prod)
	//lint:ignore scratchalias the returned patch is pool-leased on purpose: referenceGradient owns it for the duration of the fold loop and Puts every entry of patches right after AddKernelPatch
	return patch
}

// inverseButterflies is the transform work of one kernel's SOCS inverse:
// band-pruned on the batch engine, dense on the reference.
func inverseButterflies(plan *fft.Plan2, banded bool, support int) int64 {
	if !banded {
		return plan.Butterflies()
	}
	return plan.InverseBandButterflies(fft.BandSpec{Half: support / 2})
}

// batchAdjointButterflies is the transform work of one batch Gradient of f
// (plan at m, planG at g = min(m, L)): above L the (2P−1)² band of F(dLdI)
// at m and its inverse at L; nk amplitude rebuilds at g when the field kept
// no amplitude; nk adjoint patches at g; and the fold's inverse at m.
func batchAdjointButterflies(plan, planG *fft.Plan2, f *Field) int64 {
	p, nk := f.KS.P, int64(len(f.KS.Kernels))
	bf := nk*planG.AdjointPatchButterflies(p) + inverseButterflies(plan, true, p)
	if f.Amps == nil {
		bf += nk * inverseButterflies(planG, true, p)
	}
	if planG.W() < plan.W() {
		bf += plan.ForwardRealBandButterflies(2*p-1) + planG.InverseBandButterflies(fft.BandSpec{Half: p - 1})
	}
	return bf
}

// adjointGrid is L(P), the largest grid of the batch engine's adjoint:
// the smallest power of two above 2P−1 (32, 64 and 128 at P = 13, 27 and
// 35), and at least the minimum grid. Kernel k's patch reads F(dLdI) only
// on its (2P−1)² band, and L > 2P−2 keeps the L-periodic copies of that
// band from overlapping any patch cell (see batchGradient).
func adjointGrid(p int) int {
	l := minGrid
	for l <= 2*p-1 {
		l <<= 1
	}
	return l
}
