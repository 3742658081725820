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
// multiply, the mask spectrum from the two-for-one real-input forward
// (identical to rounding), and the intensity fold fused into the column
// transforms. The gradient's per-kernel adjoint transforms are output
// pruned on every engine but the reference: only the butterflies feeding
// the P×P kernel band run (fft.Plan2.AdjointPatch, bit-identical to the
// dense transform). Sim.Engine selects between this default, the
// per-kernel EngineBand, the pruning-only EngineBandInverse, and the dense
// EngineReference.
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
// only a P×P band of each product spectrum, so the per-kernel inverse
// transforms can prune the rows and butterfly blocks that are structurally
// zero; the mask itself is real, so its forward transform can pack row pairs
// two-for-one. The engines expose those two optimisations separately
// because their equivalence guarantees differ: pruning is bit-identical to
// the dense reference, the real-input packing is identical only to rounding.
type FFTEngine int

const (
	// EngineBatch (the default) runs the whole kernel set through one
	// batched multiply + pruned inverse (fft.MulRowsBatch/InverseColumns):
	// shared twiddle loads, four rows/columns in lockstep, the intensity
	// fold fused into the column pass. Produces the same bits as EngineBand
	// for every output (each lane performs EngineBand's exact operation
	// sequence), hence agrees with EngineReference to rounding; see
	// DESIGN.md, "FFT engine v2".
	EngineBatch FFTEngine = iota
	// EngineBand applies the two structural optimisations kernel by
	// kernel: ForwardReal for the mask spectrum and InverseBand for every
	// per-kernel inverse. Agrees with EngineReference to rounding
	// (~ulp-level relative error, from the forward packing only).
	EngineBand
	// EngineBandInverse keeps the dense reference forward transform and
	// prunes only the per-kernel inverses — bit-identical to
	// EngineReference for every output, at most of EngineBand's speed.
	EngineBandInverse
	// EngineReference is the dense pre-band engine, retained as the
	// reference implementation the equivalence tests compare against.
	EngineReference
)

// String returns the flag spelling of the engine.
func (e FFTEngine) String() string {
	switch e {
	case EngineBatch:
		return "batch"
	case EngineBand:
		return "band"
	case EngineBandInverse:
		return "band-inverse"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("FFTEngine(%d)", int(e))
}

// ParseEngine maps a flag/config spelling to an engine. The empty string
// selects the default (EngineBatch), so option structs can use "" for
// "leave as is".
func ParseEngine(s string) (FFTEngine, error) {
	switch s {
	case "", "batch":
		return EngineBatch, nil
	case "band":
		return EngineBand, nil
	case "band-inverse":
		return EngineBandInverse, nil
	case "reference":
		return EngineReference, nil
	}
	return 0, fmt.Errorf("litho: unknown FFT engine %q (want batch, band, band-inverse or reference)", s)
}

// Sim owns the FFT plan cache and runs forward/adjoint simulations for one
// optical model. It is safe for concurrent use.
type Sim struct {
	Model *optics.Model
	// Workers bounds the per-kernel fan-out of the SOCS loops; ≤ 0 selects
	// runtime.GOMAXPROCS(0). Results are bit-identical for every value.
	// Set it before sharing the Sim across goroutines.
	Workers int
	// Engine selects the FFT execution paths; the zero value is the
	// band-aware default. Set it before sharing the Sim across goroutines.
	Engine FFTEngine
	// Recorder receives phase timers (litho.fft_forward, litho.socs,
	// litho.fft_inverse, litho.adjoint) and simulation counters. Nil (the
	// default) disables telemetry at zero cost — the instrumented paths
	// perform no extra allocations. Set it before sharing the Sim across
	// goroutines.
	Recorder *telemetry.Recorder
	// Plans, when non-nil, is a shared FFT-plan cache. Long-running
	// processes (the ILT server) point every per-job Sim at one cache so
	// plan construction is amortized across jobs, not just across the
	// iterations of one optimization. Nil (the default) gives the Sim a
	// private cache. Set it before the first simulation.
	Plans *fft.PlanCache

	ownPlans   fft.PlanCache
	planBuilds atomic.Int32

	cscratch grid.CMatPool      // complex per-worker scratch (amplitudes, spectra)
	mscratch grid.MatPool       // real per-kernel intensity contributions
	kscratch grid.CMatSlicePool // per-call []*CMat work lists (patches, amp chunks)
}

// NewSim creates a simulator over a built kernel model.
func NewSim(model *optics.Model) *Sim {
	return &Sim{Model: model}
}

// Plan returns (building if needed) the 2-D FFT plan for size m. Plan
// construction happens exactly once per size per cache, no matter how many
// goroutines ask concurrently; with a shared Plans cache, once per size
// per process.
func (s *Sim) Plan(m int) (*fft.Plan2, error) {
	cache := s.Plans
	if cache == nil {
		cache = &s.ownPlans
	}
	var t0 time.Time
	if s.Recorder.Enabled() {
		t0 = time.Now()
	}
	plan, built, err := cache.Get(m)
	if built {
		s.planBuilds.Add(1)
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

// kernelWorkers resolves the effective fan-out for a k-kernel loop.
func (s *Sim) kernelWorkers(k int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	return w
}

// Field is the retained state of one forward simulation, sufficient to run
// the adjoint pass. Amps is only populated when the forward call was asked
// to keep per-kernel amplitudes (cheaper gradients at the cost of memory);
// otherwise the gradient pass recomputes each amplitude from Spec.
type Field struct {
	M         int          // working grid size
	Spec      *grid.CMat   // unnormalised FFT of the input mask, m×m
	Amps      []*grid.CMat // per-kernel amplitude fields A_k, or nil
	Intensity *grid.Mat    // aerial image including the dose factor
	Dose      float64
	KS        *optics.KernelSet
}

func (s *Sim) checkMask(mask *grid.Mat, p int) error {
	if mask.W != mask.H {
		return fmt.Errorf("litho: mask must be square, got %dx%d", mask.W, mask.H)
	}
	if mask.W&(mask.W-1) != 0 {
		return fmt.Errorf("litho: mask size %d is not a power of two", mask.W)
	}
	if mask.W < p {
		return fmt.Errorf("litho: mask size %d smaller than kernel support %d", mask.W, p)
	}
	return nil
}

// maskSpectrum computes the unnormalised FFT of the mask under the active
// engine: the band engine packs the real input two-for-one (ForwardReal),
// the others run the dense reference transform.
func (s *Sim) maskSpectrum(plan *fft.Plan2, mask *grid.Mat) *grid.CMat {
	sp := s.Recorder.StartSpan("litho.fft_forward")
	defer sp.End()
	if s.Engine == EngineBatch || s.Engine == EngineBand {
		spec := grid.NewCMat(mask.W, mask.H)
		plan.ForwardReal(spec, mask)
		return spec
	}
	spec := grid.ComplexFromReal(mask)
	plan.Forward(spec)
	return spec
}

// accumulateSOCS runs the per-kernel SOCS loop shared by Forward and
// ForwardEq7: amplitude A_k = F⁻¹(scale·H_k ⊙ spec) at size m, intensity
// += dose·w_k·|A_k|². The inverse-FFT 1/m² normalisation is folded into
// the kernel multiply (fft.FoldInverseScale) on every engine, so each
// amplitude buffer is touched one fewer time; all engines fold through the
// same expression, preserving their cross-engine equivalences.
//
// Engines: EngineBatch hands the whole kernel set to fft.MulRowsBatch /
// InverseColumns — one cache-blocked pass with the intensity fold fused
// into the column transforms, bit-identical to the per-kernel band path.
// The per-kernel engines fan the amplitude work across kernelWorkers
// goroutines; each kernel's intensity contribution lands in a pooled
// private buffer and the final fold into f.Intensity runs on the calling
// goroutine in ascending k — the floating-point reduction order is fixed
// (the batch fuses the same ascending-k fold into its disjoint column
// blocks), so any worker count produces the same bits on every engine.
//
// Under the band engines the kernel product lives in a band-limited scratch
// buffer (ApplyKernelBand clears only the previously dirty rows) and the
// inverse is the pruned out-of-place InverseBandNoNorm — bit-identical to
// the dense ApplyKernel + InverseNoNorm pair it replaces.
//
// Telemetry: the serial lane alternates non-overlapping litho.socs /
// litho.fft_inverse spans so traces show the inverse-transform share of the
// SOCS loop; the parallel lane records one caller-side litho.socs span
// (per-worker spans would double-count wall time and break tracecheck's
// phase-coverage bound). The batch records one litho.socs span around the
// row pass and one litho.fft_inverse span around the column pass. Every lane
// adds the butterflies of its inverse transforms to
// litho.fft_inverse_butterflies, an exact, host-independent work count.
func (s *Sim) accumulateSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool) {
	ks := f.KS
	nk := len(ks.Kernels)
	workers := s.kernelWorkers(nk)
	banded := s.Engine != EngineReference
	scale = fft.FoldInverseScale(scale, m, m)
	//lint:ignore inline work accounting, once per SOCS call
	s.Recorder.Add("litho.fft_inverse_butterflies", int64(nk)*inverseButterflies(plan, banded, ks.P))

	if s.Engine == EngineBatch && s.batchSOCS(f, plan, spec, m, scale, keepAmps, workers) {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
		return
	}

	if workers <= 1 {
		// Serial fast path: one amplitude buffer and one contribution buffer
		// recycled across all kernels — O(1) scratch at any grid size.
		contrib := s.mscratch.Get(m, m)
		var prod *grid.CMat
		dirty := fft.BandNone
		if banded {
			prod = s.cscratch.Get(m, m)
		}
		var buf *grid.CMat
		if !keepAmps {
			buf = s.cscratch.Get(m, m)
		}
		for k, h := range ks.Kernels {
			amp := buf
			if keepAmps {
				amp = grid.NewCMat(m, m)
				f.Amps[k] = amp
			}
			sp := s.Recorder.StartSpan("litho.socs")
			if banded {
				prod, dirty = fft.ApplyKernelBand(prod, dirty, spec, h, m, scale)
			} else {
				fft.ApplyKernel(amp, spec, h, m, scale)
			}
			sp.End()
			spi := s.Recorder.StartSpan("litho.fft_inverse")
			if banded {
				plan.InverseBandNoNorm(amp, prod, dirty)
			} else {
				plan.InverseNoNorm(amp)
			}
			spi.End()
			sp = s.Recorder.StartSpan("litho.socs")
			amp.AbsSqScaledInto(contrib, f.Dose*ks.Weights[k])
			f.Intensity.Add(contrib)
			sp.End()
		}
		if prod != nil {
			s.cscratch.Put(prod)
		}
		if buf != nil {
			s.cscratch.Put(buf)
		}
		s.mscratch.Put(contrib)
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
		return
	}

	sp := s.Recorder.StartSpan("litho.socs")
	contribs := make([]*grid.Mat, nk)
	grid.ParallelFor(workers, nk, func(k int) {
		h := ks.Kernels[k]
		var amp *grid.CMat
		if banded {
			prod, band := fft.ApplyKernelBand(s.cscratch.Get(m, m), fft.BandNone, spec, h, m, scale)
			if keepAmps {
				amp = grid.NewCMat(m, m)
				f.Amps[k] = amp
			} else {
				amp = s.cscratch.Get(m, m)
			}
			plan.InverseBandNoNorm(amp, prod, band)
			s.cscratch.Put(prod)
		} else {
			if keepAmps {
				amp = fft.ApplyKernel(nil, spec, h, m, scale)
				f.Amps[k] = amp
			} else {
				amp = fft.ApplyKernel(s.cscratch.Get(m, m), spec, h, m, scale)
			}
			plan.InverseNoNorm(amp)
		}
		c := s.mscratch.Get(m, m)
		amp.AbsSqScaledInto(c, f.Dose*ks.Weights[k])
		contribs[k] = c
		if !keepAmps {
			s.cscratch.Put(amp)
		}
	})
	for _, c := range contribs {
		f.Intensity.Add(c)
		s.mscratch.Put(c)
	}
	sp.End()
	s.Recorder.Add("litho.kernel_ffts", int64(nk))
}

// batchSOCS is the EngineBatch lane of accumulateSOCS: the kernel multiply
// and pruned inverse row transforms for all kernels run in one batched pass
// (litho.socs span), then the column transforms with the fused ascending-k
// intensity fold (litho.fft_inverse span). scale must already carry the
// folded 1/m² (accumulateSOCS does this). Reports false when the batch
// layout does not apply so the caller falls back to the per-kernel band
// lane.
func (s *Sim) batchSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool, workers int) bool {
	ks := f.KS
	sp := s.Recorder.StartSpan("litho.socs")
	// The mask spectrum comes from a real mask, so it is Hermitian (to
	// rounding) — the batch halves the row work for any exactly-Hermitian
	// kernel; physical kernels carry defocus phase and keep the gate
	// closed, so this path stays bit-identical to EngineBand.
	b := plan.MulRowsBatch(spec, ks.Kernels, scale, true, workers)
	if b == nil {
		sp.End()
		return false
	}
	weights := make([]float64, len(ks.Kernels))
	for k := range weights {
		weights[k] = f.Dose * ks.Weights[k]
	}
	var outs []*grid.CMat
	if keepAmps {
		for k := range f.Amps {
			f.Amps[k] = grid.NewCMat(m, m)
		}
		outs = f.Amps
	}
	sp.End()
	spi := s.Recorder.StartSpan("litho.fft_inverse")
	b.InverseColumns(outs, weights, f.Intensity)
	spi.End()
	return true
}

// Forward runs the exact SOCS simulation (Eq. 3) of the mask at its own
// resolution: I = dose · Σ_k w_k |F⁻¹(H_k ⊙ F(M))|². With a mask already
// downsampled by the caller this is exactly Eq. (8) of the paper — the
// approximation the low-resolution ILT optimises against. Set keepAmps when
// a gradient pass will follow and memory allows (24 complex fields).
func (s *Sim) Forward(mask *grid.Mat, ks *optics.KernelSet, dose float64, keepAmps bool) (*Field, error) {
	if err := s.checkMask(mask, ks.P); err != nil {
		return nil, err
	}
	m := mask.W
	plan, err := s.Plan(m)
	if err != nil {
		return nil, err
	}
	spec := s.maskSpectrum(plan, mask)

	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	if keepAmps {
		f.Amps = make([]*grid.CMat, len(ks.Kernels))
	}
	s.accumulateSOCS(f, plan, spec, m, 1, keepAmps)
	s.Recorder.Add("litho.forward_sims", 1)
	return f, nil
}

// ForwardEq7 runs the frequency-truncated low-resolution simulation of
// Eq. (7): the mask stays at full resolution n, its spectrum is multiplied
// by each kernel, truncated to m = n/s with the 1/s² scale, and
// inverse-transformed at size m. The result equals the exact aerial image
// sampled every s pixels (the kernel support lies inside the retained band).
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
	spec := s.maskSpectrum(planN, mask)

	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	sc := complex(1/float64(scale*scale), 0)
	s.accumulateSOCS(f, planM, spec, m, sc, false)
	s.Recorder.Add("litho.eq7_sims", 1)
	return f, nil
}

// Gradient computes dL/dM for a Field produced by Forward, given dL/dI at
// the working resolution:
//
//	dL/dM = Σ_k 2·w_k·dose · Re[ F⁻¹( conj(H_k) ⊙ F( dLdI ⊙ A_k ) ) ].
//
// Amplitudes are taken from the field when kept, otherwise recomputed from
// the retained mask spectrum. Each kernel contributes only the P×P band of
// F(dLdI ⊙ A_k): every engine but the reference computes that patch with
// the output-pruned fft.Plan2.AdjointPatch, which forms the product row by
// row and runs only the butterflies the patch reads; EngineReference keeps
// the dense product, m×m transform and KernelAdjointPatch (adjointPatch) as
// the oracle, with the same bits. The patches are computed in parallel and
// folded into the frequency-domain accumulator in ascending k, so only one
// final inverse FFT is needed and the result is bit-identical for every
// worker count. The call adds its transform butterflies to
// litho.adjoint_butterflies.
func (s *Sim) Gradient(f *Field, dLdI *grid.Mat) (*grid.Mat, error) {
	if dLdI.W != f.M || dLdI.H != f.M {
		//lint:ignore escape error-path boxing of the size operands into the fmt args; never reached by a converging optimization
		return nil, fmt.Errorf("litho: dLdI size %dx%d != field size %d", dLdI.W, dLdI.H, f.M)
	}
	if f.Amps == nil && (f.Spec.W != f.M || f.Spec.H != f.M) {
		// Fields from ForwardEq7 keep the full-size spectrum; their adjoint
		// is not implemented (the optimizer only differentiates Forward).
		return nil, fmt.Errorf("litho: gradient of a truncated (Eq. 7) field is not supported")
	}
	plan, err := s.Plan(f.M)
	if err != nil {
		return nil, err
	}
	sp := s.Recorder.StartSpan("litho.adjoint")
	defer sp.End()
	s.Recorder.Add("litho.adjoint_calls", 1)
	banded := s.Engine != EngineReference
	nk := len(f.KS.Kernels)
	p := f.KS.P
	workers := s.kernelWorkers(nk)
	// The amplitude recompute (fields without kept amps) folds the inverse
	// normalisation into the kernel multiply, like the forward pass; the
	// adjoint patch weight likewise absorbs the final inverse's 1/m².
	ampScale := fft.FoldInverseScale(1, f.M, f.M)
	if f.Amps == nil {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
	}
	//lint:ignore inline work accounting, once per gradient
	s.Recorder.Add("litho.adjoint_butterflies", s.adjointButterflies(plan, f))
	patchesp, patches := s.kscratch.Get(nk)
	if f.Amps == nil && s.Engine == EngineBatch && s.batchAdjointPatches(f, plan, dLdI, patches, ampScale, workers) {
		// Amplitudes recomputed in batched chunks, patches filled.
	} else {
		grid.ParallelFor(workers, nk, func(k int) {
			h := f.KS.Kernels[k]
			var amp *grid.CMat
			recomputed := false
			if f.Amps != nil {
				amp = f.Amps[k]
			} else if banded {
				kprod, band := fft.ApplyKernelBand(s.cscratch.Get(f.M, f.M), fft.BandNone, f.Spec, h, f.M, ampScale)
				amp = s.cscratch.Get(f.M, f.M)
				plan.InverseBandNoNorm(amp, kprod, band)
				s.cscratch.Put(kprod)
				recomputed = true
			} else {
				amp = fft.ApplyKernel(s.cscratch.Get(f.M, f.M), f.Spec, h, f.M, ampScale)
				plan.InverseNoNorm(amp)
				recomputed = true
			}
			var patch *grid.CMat
			if banded {
				//lint:ignore inline one call per kernel into an O(m·P·log m) transform
				patch = s.prunedPatch(f, plan, amp, dLdI, k)
			} else {
				patch = s.adjointPatch(f, plan, amp, dLdI, k)
			}
			patches[k] = patch
			if recomputed {
				s.cscratch.Put(amp)
			}
		})
	}
	// The patch fold only populates the P×P band of acc, so the band
	// engines clear just those rows and run the pruned out-of-place inverse
	// — bit-identical to the dense Zero + Inverse below.
	accBand := fft.BandSpec{Half: p / 2}
	acc := s.cscratch.Get(f.M, f.M)
	useBand := banded && !accBand.Covers(f.M)
	if useBand {
		accBand.ZeroRows(acc)
	} else {
		acc.Zero()
	}
	for _, patch := range patches {
		fft.AddKernelPatch(acc, patch)
		s.cscratch.Put(patch)
	}
	s.kscratch.Put(patchesp)
	var out *grid.Mat
	if useBand {
		img := s.cscratch.Get(f.M, f.M)
		plan.InverseBandNoNorm(img, acc, accBand)
		out = img.Real()
		s.cscratch.Put(img)
	} else {
		plan.InverseNoNorm(acc)
		out = acc.Real()
	}
	s.cscratch.Put(acc)
	return out, nil
}

// adjointPatch computes one kernel's adjoint contribution: B_k = dLdI ⊙ A_k,
// its forward transform, and the P×P frequency patch weighted by
// 2·w_k·dose with the final inverse's 1/m² folded in.
func (s *Sim) adjointPatch(f *Field, plan *fft.Plan2, amp *grid.CMat, dLdI *grid.Mat, k int) *grid.CMat {
	prod := s.cscratch.Get(f.M, f.M)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(dLdI.Data[i], 0)
	}
	plan.Forward(prod)
	w := fft.FoldInverseScale(complex(2*f.KS.Weights[k]*f.Dose, 0), f.M, f.M)
	patch := fft.KernelAdjointPatch(s.cscratch.Get(f.KS.P, f.KS.P), prod, f.KS.Kernels[k], w)
	s.cscratch.Put(prod)
	//lint:ignore scratchalias the returned patch is pool-leased on purpose: Gradient owns it for the duration of the fold loop and Puts every entry of patches right after AddKernelPatch
	return patch
}

// prunedPatch is adjointPatch on the output-pruned path of every engine but
// the reference: fft.Plan2.AdjointPatch forms dLdI ⊙ A_k row by row and
// transforms only what the P×P patch reads — the same patch bits, without
// the m×m product buffer or the dense transform.
func (s *Sim) prunedPatch(f *Field, plan *fft.Plan2, amp *grid.CMat, dLdI *grid.Mat, k int) *grid.CMat {
	w := fft.FoldInverseScale(complex(2*f.KS.Weights[k]*f.Dose, 0), f.M, f.M)
	//lint:ignore scratchalias the returned patch is pool-leased on purpose, like adjointPatch's: Gradient Puts every entry of patches right after AddKernelPatch
	return plan.AdjointPatch(s.cscratch.Get(f.KS.P, f.KS.P), dLdI, amp, f.KS.Kernels[k], w)
}

// inverseButterflies is the transform work of one kernel's SOCS inverse:
// band-pruned on every engine but the dense reference.
func inverseButterflies(plan *fft.Plan2, banded bool, support int) int64 {
	if !banded {
		return plan.Butterflies()
	}
	return plan.InverseBandButterflies(fft.BandSpec{Half: support / 2})
}

// adjointButterflies is the transform work of one Gradient call: the
// amplitude recompute inverses (for a field that kept no amplitudes), the
// per-kernel adjoint transforms and the inverse of the patch fold.
func (s *Sim) adjointButterflies(plan *fft.Plan2, f *Field) int64 {
	banded := s.Engine != EngineReference
	nk := int64(len(f.KS.Kernels))
	inverses := int64(1)
	if f.Amps == nil {
		inverses += nk
	}
	adj := plan.Butterflies()
	if banded {
		adj = plan.AdjointPatchButterflies(f.KS.P)
	}
	return inverses*inverseButterflies(plan, banded, f.KS.P) + nk*adj
}

// batchAdjointPatches is the EngineBatch lane of the gradient's
// amplitude-recompute path: amplitudes are regenerated through
// MulRowsBatch/InverseColumns in chunks (bounding the live amplitude
// memory to ~chunk·m² complex values instead of nk·m²), then each chunk's
// output-pruned adjoint patches are computed in parallel. Patch values are
// bit-identical to the per-kernel lane — the batch reproduces its
// amplitude bits, and the patch arithmetic is shared (prunedPatch).
// Reports false when the batch layout does not apply.
func (s *Sim) batchAdjointPatches(f *Field, plan *fft.Plan2, dLdI *grid.Mat, patches []*grid.CMat, ampScale complex128, workers int) bool {
	ks := f.KS
	nk := len(ks.Kernels)
	chunk := workers
	if chunk < 4 {
		chunk = 4
	}
	if chunk > nk {
		chunk = nk
	}
	ampsp, amps := s.kscratch.Get(chunk)
	for i := range amps {
		amps[i] = s.cscratch.Get(f.M, f.M)
	}
	defer func() {
		for i := range amps {
			s.cscratch.Put(amps[i])
		}
		s.kscratch.Put(ampsp)
	}()
	for c0 := 0; c0 < nk; c0 += chunk {
		c1 := c0 + chunk
		if c1 > nk {
			c1 = nk
		}
		b := plan.MulRowsBatch(f.Spec, ks.Kernels[c0:c1], ampScale, true, workers)
		if b == nil {
			return false // layout constraint: fails on the first chunk or never
		}
		b.InverseColumns(amps[:c1-c0], nil, nil)
		grid.ParallelFor(workers, c1-c0, func(j int) {
			//lint:ignore inline one call per kernel into an O(m·P·log m) transform
			patches[c0+j] = s.prunedPatch(f, plan, amps[j], dLdI, c0+j)
		})
	}
	return true
}
