package litho

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

// The engine contract: the batch engine (production) and the reference
// engine (the dense oracle) produce the same bits from the same mask
// spectrum — pruned and batched transforms reproduce the dense ones
// exactly — and the batch's two-for-one real-input mask forward agrees
// with the dense forward to rounding.

func newEngineSim(t *testing.T, e FFTEngine, workers int) *Sim {
	t.Helper()
	sim := NewSim(model(t))
	sim.Engine = e
	sim.Workers = workers
	return sim
}

// socsOn runs sim's SOCS sum at size m on a given mask spectrum, as Forward
// (keep = keepAmps, scale 1) or ForwardEq7 (scale 1/s²) would after their
// mask transform.
func socsOn(t *testing.T, sim *Sim, spec *grid.CMat, m int, scale complex128, dose float64, keep bool) *Field {
	t.Helper()
	plan, err := sim.Plan(m)
	if err != nil {
		t.Fatal(err)
	}
	ks := sim.Model.Nominal
	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	sim.accumulateSOCS([]*Field{f}, plan, spec, m, scale, keep)
	return f
}

// Tolerance-0 equivalence of the batch engine to the reference, run on the
// reference's own spectrum and Field so the rounding of the packed mask
// forward stays out: SOCS intensity and kept amplitudes, Eq. 7 at scales
// 1, 2 and 4, across grid sizes and worker counts, and Gradient with kept
// and with rebuilt amplitudes at m ≤ L = adjointGrid(P) (32 here), where
// the batch gradient runs on the field's own grid. Above L it is exact
// only to rounding (TestBandAdjointMatchesReference).
func TestEngineBatchBitIdenticalToReference(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(31))
	ref := newEngineSim(t, EngineReference, 1)
	for _, n := range []int{32, 64, 128, 256} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		for _, keep := range []bool{false, true} {
			want, err := ref.Forward(mask, mdl.Nominal, 1.02, keep)
			if err != nil {
				t.Fatal(err)
			}
			wantG, err := ref.Gradient(want, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBatch, w)
				got := socsOn(t, sim, want.Spec, n, 1, 1.02, keep)
				if !got.Intensity.Equal(want.Intensity, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity differs from reference", n, w, keep)
				}
				for k := range want.Amps {
					if got.Amps[k].MaxAbsDiff(want.Amps[k]) != 0 {
						t.Errorf("n=%d workers=%d: batched amplitude %d differs from reference", n, w, k)
					}
				}
				if n > adjointGrid(mdl.Nominal.P) {
					continue
				}
				g, err := sim.Gradient(want, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(wantG, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient differs from reference", n, w, keep)
				}
			}
		}
		for _, scale := range []int{1, 2, 4} {
			if n/scale < mdl.Nominal.P {
				continue
			}
			want, err := ref.ForwardEq7(mask, scale, mdl.Nominal, 0.98)
			if err != nil {
				t.Fatal(err)
			}
			sc := complex(1/float64(scale*scale), 0)
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBatch, w)
				got := socsOn(t, sim, want.Spec, n/scale, sc, 0.98, false)
				if !got.Intensity.Equal(want.Intensity, 0) {
					t.Errorf("n=%d scale=%d workers=%d: batched Eq7 intensity differs from reference", n, scale, w)
				}
			}
		}
	}
}

// TestForwardCornersMatchesForward: one mask spectrum and one SOCS pass per
// kernel set give every corner the bits of its own Forward on both engines
// — intensities and kept amplitudes — with the nominal and outer corners
// folded into one pass of the nominal kernel set. The work counters show
// the sharing: one spectrum and 2·nk kernel transforms for three corner
// images.
func TestForwardCornersMatchesForward(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(33))
	mask := randMask(rng, 64)
	corners := []Corner{
		{Name: "nominal", KS: mdl.Nominal, Dose: 1},
		{Name: "inner", KS: mdl.Defocus, Dose: 0.98},
		{Name: "outer", KS: mdl.Nominal, Dose: 1.02},
	}
	nk := len(mdl.Nominal.Kernels)
	for _, e := range []FFTEngine{EngineBatch, EngineReference} {
		for _, keep := range []bool{false, true} {
			sim := newEngineSim(t, e, 2)
			rec := telemetry.New()
			sim.Recorder = rec
			got, err := sim.ForwardCorners(mask, corners, keep)
			if err != nil {
				t.Fatal(err)
			}
			c := rec.Counters()
			spectra := int64(0)
			for _, ph := range rec.Phases() {
				if ph.Name == "litho.fft_forward" {
					spectra = ph.Count
				}
			}
			if spectra != 1 || c["litho.kernel_ffts"] != int64(2*nk) || c["litho.forward_sims"] != 3 {
				t.Errorf("%v keep=%v: %d spectra, %d kernel FFTs, %d forward sims; want 1, %d, 3",
					e, keep, spectra, c["litho.kernel_ffts"], c["litho.forward_sims"], 2*nk)
			}
			sim.Recorder = nil
			for i, cn := range corners {
				want, err := sim.Forward(mask, cn.KS, cn.Dose, keep)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Spec != got[0].Spec {
					t.Errorf("%v: corner %s does not share the mask spectrum", e, cn.Name)
				}
				if !got[i].Intensity.Equal(want.Intensity, 0) {
					t.Errorf("%v keep=%v: corner %s intensity differs from its own Forward", e, keep, cn.Name)
				}
				if len(got[i].Amps) != len(want.Amps) {
					t.Fatalf("%v keep=%v: corner %s kept %d amplitudes, Forward %d", e, keep, cn.Name, len(got[i].Amps), len(want.Amps))
				}
				for k := range want.Amps {
					if got[i].Amps[k].MaxAbsDiff(want.Amps[k]) != 0 {
						t.Errorf("%v: corner %s amplitude %d differs from its own Forward", e, cn.Name, k)
					}
				}
				sim.Release(want)
			}
			for _, f := range got {
				sim.Release(f)
			}
		}
	}
}

// An all-zero mask must image to an exactly zero field under every engine
// (the dark-frame invariant other tests assume at tolerance 1e-12 holds
// exactly here).
func TestEnginesDarkFrameExactZero(t *testing.T) {
	mdl := model(t)
	const n = 64
	mask := grid.NewMat(n, n)
	for _, e := range []FFTEngine{EngineBatch, EngineReference} {
		sim := newEngineSim(t, e, 1)
		f, err := sim.Forward(mask, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range f.Intensity.Data {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("engine %d: dark frame pixel %d = %v, want +0", e, i, v)
			}
		}
	}
}

// End to end, including its own packed mask forward, the batch engine
// agrees with the reference to rounding at every worker count. The
// tolerance scales with the intensity magnitude (O(1) under the open-frame
// normalisation): 1e-10 is ~6 decimal orders above the observed ulp-level
// deviation but far below any physically meaningful intensity difference.
// Covers Forward (both keepAmps modes), ForwardEq7 and Gradient; runs under
// -race in the race lane.
func TestEngineBatchEquivalence(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(36))
	const tol = 1e-10
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		ref := newEngineSim(t, EngineReference, 1)
		refF, err := ref.Forward(mask, mdl.Nominal, 1.02, false)
		if err != nil {
			t.Fatal(err)
		}
		refG, err := ref.Gradient(refF, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		refE7, err := ref.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []bool{false, true} {
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBatch, w)
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Intensity.Equal(refF.Intensity, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity outside reference tolerance", n, w, keep)
				}
				g, err := sim.Gradient(got, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(refG, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient outside reference tolerance", n, w, keep)
				}
				e7, err := sim.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
				if err != nil {
					t.Fatal(err)
				}
				if !e7.Intensity.Equal(refE7.Intensity, tol) {
					t.Errorf("n=%d workers=%d: batched Eq7 intensity outside reference tolerance", n, w)
				}
			}
		}
	}
}

// The batched engine stays bit-identical across worker counts: the row
// pass partitions kernels, the column pass partitions disjoint column
// blocks, and every cross-kernel fold is ascending-k within a block.
func TestEngineBatchDeterministicAcrossWorkers(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(37))
	const n = 128
	mask := randMask(rng, n)
	dLdI := randMask(rng, n)
	base := newEngineSim(t, EngineBatch, 1)
	want, err := base.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := base.Gradient(want, dLdI)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep() {
		sim := newEngineSim(t, EngineBatch, w)
		got, err := sim.Forward(mask, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Intensity.Equal(want.Intensity, 0) {
			t.Errorf("workers=%d: batched engine not bit-identical to serial", w)
		}
		g, err := sim.Gradient(got, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(wantG, 0) {
			t.Errorf("workers=%d: batched gradient not bit-identical to serial", w)
		}
	}
}

// The batched engine preserves the phase vocabulary (litho.socs around the
// row pass, litho.fft_inverse around the column pass) and the kernel-FFT
// counter the observability stack depends on, at n = L = 32, where the
// gradient runs on the field's own grid (its counts above L:
// TestBandAdjointButterflies).
func TestBatchEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineBatch, 1)
	rec := telemetry.New()
	sim.Recorder = rec

	const n = 32
	mask := grid.NewMat(n, n)
	mask.Fill(1)
	f, err := sim.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, mask); err != nil {
		t.Fatal(err)
	}

	phases := map[string]telemetry.PhaseStat{}
	for _, p := range rec.Phases() {
		phases[p.Name] = p
	}
	for _, name := range []string{"litho.socs", "litho.fft_inverse", "litho.fft_forward", "litho.adjoint"} {
		if phases[name].Count == 0 {
			t.Errorf("phase %s missing under the batched engine: %v", name, rec.Phases())
		}
	}
	nk := len(mdl.Nominal.Kernels)
	c := rec.Counters()
	// One forward SOCS pass plus the gradient's rebuilt amplitudes: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
	checkButterflies(t, sim, c, wantInverseBF, wantAdjointBF)
}

// Exact transform-work counters of one Forward (keepAmps off) plus one
// Gradient of the test model (P = 13, 8 kernels). Pruned to the band
// |f| ≤ 6, a 1-D transform at n = 64 runs 13 + 26 + 4·32 = 167 butterflies
// (input pruned: stages 1–2 touch 13 blocks) or 4·32 + 26 + 13 = 167
// (output pruned: stages 5–6 keep 13 butterflies per block), and one at
// n = 32 runs 4·16 + 13 = 77. The batch engine is counted at n = 32, where
// a band inverse (13 rows, 32 columns) and an adjoint patch (32 rows, 13
// columns) both run 45·77 = 3465; the reference at n = 64, where a dense
// 1-D transform runs 32·6 = 192 butterflies and a dense 2-D one
// 2·64·192 = 24576. The forward adds nk SOCS inverses; the gradient nk
// amplitude rebuilds, nk adjoint transforms and the patch fold's inverse.
const (
	wantInverseBF    = 8 * 3465  // pruned, n = 32: nk band inverses
	wantAdjointBF    = 17 * 3465 // pruned, n = 32: (nk+1) inverses + nk patches
	wantRefInverseBF = 8 * 24576 // dense reference, n = 64
	wantRefAdjointBF = 17 * 24576
)

func checkButterflies(t *testing.T, sim *Sim, c map[string]int64, inverse, adjoint int64) {
	t.Helper()
	if p, nk := sim.Model.Nominal.P, len(sim.Model.Nominal.Kernels); p != 13 || nk != 8 {
		t.Fatalf("test model has P=%d and %d kernels; the expected counts assume P=13 and 8", p, nk)
	}
	if got := c["litho.fft_inverse_butterflies"]; got != inverse {
		t.Errorf("litho.fft_inverse_butterflies = %d, want %d", got, inverse)
	}
	if got := c["litho.adjoint_butterflies"]; got != adjoint {
		t.Errorf("litho.adjoint_butterflies = %d, want %d", got, adjoint)
	}
}

// The reference engine's serial lane records one litho.fft_inverse span per
// kernel between its litho.socs spans, and counts dense transform work.
func TestReferenceEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineReference, 1)
	rec := telemetry.New()
	sim.Recorder = rec

	const n = 64
	mask := grid.NewMat(n, n)
	mask.Fill(1)
	f, err := sim.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, mask); err != nil {
		t.Fatal(err)
	}

	phases := map[string]telemetry.PhaseStat{}
	for _, p := range rec.Phases() {
		phases[p.Name] = p
	}
	nk := len(mdl.Nominal.Kernels)
	if got := phases["litho.fft_inverse"].Count; got != int64(nk) {
		t.Errorf("litho.fft_inverse count = %d, want %d", got, nk)
	}
	if phases["litho.socs"].Count == 0 || phases["litho.fft_forward"].Count == 0 {
		t.Errorf("socs/fft_forward phases missing: %v", rec.Phases())
	}
	c := rec.Counters()
	// One forward SOCS pass plus the gradient's recomputed amplitudes: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
	checkButterflies(t, sim, c, wantRefInverseBF, wantRefAdjointBF)
}
