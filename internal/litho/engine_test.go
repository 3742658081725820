package litho

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

// The old-vs-new contract of the band engine, split by guarantee strength:
//
//   - EngineBandInverse (pruned inverses, dense forward) is bit-identical
//     to EngineReference — tolerance 0, every worker count, every output.
//   - EngineBand additionally packs the real mask two-for-one in the
//     forward transform, which reassociates rounding; it must agree with
//     the reference to a tight scaled tolerance.

func newEngineSim(t *testing.T, e FFTEngine, workers int) *Sim {
	t.Helper()
	sim := NewSim(model(t))
	sim.Engine = e
	sim.Workers = workers
	return sim
}

// Tolerance-0 equivalence of Forward old-vs-new: the pruned engine must
// reproduce the dense reference bit-for-bit — intensity, spectrum and
// kept amplitudes — across grid sizes, worker counts and keepAmps modes.
func TestEngineBandInverseForwardBitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		for _, keep := range []bool{false, true} {
			ref := newEngineSim(t, EngineReference, 1)
			want, err := ref.Forward(mask, mdl.Nominal, 1.02, keep)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBandInverse, w)
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Intensity.Equal(want.Intensity, 0) {
					t.Errorf("n=%d workers=%d keep=%v: banded intensity differs from reference", n, w, keep)
				}
				if got.Spec.MaxAbsDiff(want.Spec) != 0 {
					t.Errorf("n=%d workers=%d: banded spectrum differs from reference", n, w)
				}
				if keep {
					for k := range want.Amps {
						if got.Amps[k].MaxAbsDiff(want.Amps[k]) != 0 {
							t.Errorf("n=%d workers=%d: banded amplitude %d differs", n, w, k)
						}
					}
				}
			}
		}
	}
}

// Same tolerance-0 equivalence for the truncated Eq. 7 simulation, where
// the pruning engages at the reduced size m = n/s.
func TestEngineBandInverseEq7BitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(32))
	const n = 256
	mask := randMask(rng, n)
	for _, scale := range []int{1, 2, 4} {
		ref := newEngineSim(t, EngineReference, 1)
		want, err := ref.ForwardEq7(mask, scale, mdl.Nominal, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep() {
			sim := newEngineSim(t, EngineBandInverse, w)
			got, err := sim.ForwardEq7(mask, scale, mdl.Nominal, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Intensity.Equal(want.Intensity, 0) {
				t.Errorf("scale=%d workers=%d: banded Eq7 intensity differs from reference", scale, w)
			}
		}
	}
}

// Tolerance-0 equivalence of Gradient old-vs-new on both adjoint paths
// (kept amplitudes and the recompute path, which is where the pruned
// per-kernel inverses and the band-limited accumulator inverse run).
func TestEngineBandInverseGradientBitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		for _, keep := range []bool{false, true} {
			ref := newEngineSim(t, EngineReference, 1)
			rf, err := ref.Forward(mask, mdl.Nominal, 1, keep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Gradient(rf, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBandInverse, w)
				f, err := sim.Forward(mask, mdl.Nominal, 1, keep)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want, 0) {
					t.Errorf("n=%d workers=%d keep=%v: banded gradient differs from reference", n, w, keep)
				}
			}
		}
	}
}

// The default engine (ForwardReal packing on top of the pruned inverses)
// agrees with the reference to rounding. The tolerance scales with the
// intensity magnitude (O(1) under the open-frame normalisation): 1e-10 is
// ~6 decimal orders above the observed ulp-level deviation but far below
// any physically meaningful intensity difference.
func TestEngineBandMatchesReferenceClosely(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(34))
	const n, tol = 128, 1e-10
	mask := randMask(rng, n)
	dLdI := randMask(rng, n)

	ref := newEngineSim(t, EngineReference, 1)
	rf, err := ref.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := ref.Gradient(rf, dLdI)
	if err != nil {
		t.Fatal(err)
	}

	sim := newEngineSim(t, EngineBand, 1)
	f, err := sim.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Intensity.Equal(rf.Intensity, tol) {
		t.Error("band-engine intensity outside rounding tolerance of reference")
	}
	g, err := sim.Gradient(f, dLdI)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(rg, tol) {
		t.Error("band-engine gradient outside rounding tolerance of reference")
	}

	e7ref, err := ref.ForwardEq7(mask, 2, mdl.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	e7, err := sim.ForwardEq7(mask, 2, mdl.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e7.Intensity.Equal(e7ref.Intensity, tol) {
		t.Error("band-engine Eq7 intensity outside rounding tolerance of reference")
	}
}

// The default engine stays bit-identical across worker counts — the band
// transforms preserve PR 1's determinism discipline.
func TestEngineBandDeterministicAcrossWorkers(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(35))
	const n = 128
	mask := randMask(rng, n)
	base := newEngineSim(t, EngineBand, 1)
	want, err := base.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep() {
		sim := newEngineSim(t, EngineBand, w)
		got, err := sim.Forward(mask, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Intensity.Equal(want.Intensity, 0) {
			t.Errorf("workers=%d: band engine not bit-identical to serial", w)
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
	for _, e := range []FFTEngine{EngineBatch, EngineBand, EngineBandInverse, EngineReference} {
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

// The batched engine's two-sided contract, at every worker count: bit
// identity with EngineBand (each batch lane performs the band engine's
// exact operation sequence; physical kernels are not exactly Hermitian, so
// the conjugate-mirror gate stays closed), and rounding-level agreement
// with EngineReference (inherited from the ForwardReal packing, the only
// non-bit-exact substitution). Covers Forward (both keepAmps modes),
// ForwardEq7 and Gradient; runs under -race in the race lane.
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
			band := newEngineSim(t, EngineBand, 1)
			wantF, err := band.Forward(mask, mdl.Nominal, 1.02, keep)
			if err != nil {
				t.Fatal(err)
			}
			wantG, err := band.Gradient(wantF, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			wantE7, err := band.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := newEngineSim(t, EngineBatch, w)
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Intensity.Equal(wantF.Intensity, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity differs from band engine", n, w, keep)
				}
				if !got.Intensity.Equal(refF.Intensity, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity outside reference tolerance", n, w, keep)
				}
				if keep {
					for k := range wantF.Amps {
						if got.Amps[k].MaxAbsDiff(wantF.Amps[k]) != 0 {
							t.Errorf("n=%d workers=%d: batched amplitude %d differs from band engine", n, w, k)
						}
					}
				}
				g, err := sim.Gradient(got, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(wantG, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient differs from band engine", n, w, keep)
				}
				if !g.Equal(refG, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient outside reference tolerance", n, w, keep)
				}
				e7, err := sim.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
				if err != nil {
					t.Fatal(err)
				}
				if !e7.Intensity.Equal(wantE7.Intensity, 0) {
					t.Errorf("n=%d workers=%d: batched Eq7 intensity differs from band engine", n, w)
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

// Engine string round trip plus the full rejection surface. ParseEngine
// is the validation point for every config path (flags,
// core.Options.Engine, the server's JobRequest.Engine), so the contract
// is pinned exhaustively: the "" = default convention, exact-match
// case-sensitive spellings, and an error that names all four valid
// engines so a typo in any config surface is self-explaining.
func TestParseEngine(t *testing.T) {
	valid := []struct {
		in   string
		want FFTEngine
	}{
		{"", EngineBatch}, // "" = leave-as-default convention
		{"batch", EngineBatch},
		{"band", EngineBand},
		{"band-inverse", EngineBandInverse},
		{"reference", EngineReference},
	}
	for _, tc := range valid {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	for _, e := range []FFTEngine{EngineBatch, EngineBand, EngineBandInverse, EngineReference} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("round trip ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}

	invalid := []struct{ name, in string }{
		{"unknown word", "warp"},
		{"legacy alias", "dense"},
		{"abbreviation", "ref"},
		{"capitalized", "Batch"},
		{"upper case", "BAND"},
		{"mixed case", "Band-Inverse"},
		{"upper reference", "REFERENCE"},
		{"leading space", " batch"},
		{"trailing space", "batch "},
		{"inner space", "band inverse"},
		{"underscore", "band_inverse"},
		{"no separator", "bandinverse"},
		{"list", "batch,band"},
		{"numeric", "0"},
		{"default keyword", "default"},
	}
	for _, tc := range invalid {
		got, err := ParseEngine(tc.in)
		if err == nil {
			t.Errorf("%s: ParseEngine(%q) = %v, accepted; want error", tc.name, tc.in, got)
			continue
		}
		if got != 0 {
			t.Errorf("%s: ParseEngine(%q) returned engine %v alongside the error", tc.name, tc.in, got)
		}
		msg := err.Error()
		if !strings.Contains(msg, strconv.Quote(tc.in)) {
			t.Errorf("%s: error %q does not echo the rejected input %q", tc.name, msg, tc.in)
		}
		// The error must name every valid spelling: it doubles as the help
		// text on each config surface.
		for _, want := range []string{"batch", "band", "band-inverse", "reference"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not name valid engine %q", tc.name, msg, want)
			}
		}
	}
}

// The batched engine preserves the phase vocabulary (litho.socs around the
// row pass, litho.fft_inverse around the column pass) and the kernel-FFT
// counter the observability stack depends on.
func TestBatchEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineBatch, 1)
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
	for _, name := range []string{"litho.socs", "litho.fft_inverse", "litho.fft_forward", "litho.adjoint"} {
		if phases[name].Count == 0 {
			t.Errorf("phase %s missing under the batched engine: %v", name, rec.Phases())
		}
	}
	nk := len(mdl.Nominal.Kernels)
	c := rec.Counters()
	// One forward SOCS pass plus the gradient recompute path: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
	checkButterflies(t, sim, c, wantInverseBF, wantAdjointBF)
}

// Exact transform-work counters of one Forward (keepAmps off) plus one
// Gradient of the test model (P = 13, 8 kernels) at n = 64, where a dense
// 1-D transform runs 32·6 = 192 butterflies and a dense 2-D one
// 2·64·192 = 24576. Pruned to the band |f| ≤ 6, a 1-D transform runs
// 13 + 26 + 4·32 = 167 (input pruned: stages 1–2 touch 13 blocks) or
// 4·32 + 26 + 13 = 167 (output pruned: stages 5–6 keep 13 butterflies per
// block), so a band inverse (13 rows, 64 columns) and an adjoint patch
// (64 rows, 13 columns) both run 77·167 = 12859. The forward adds nk SOCS
// inverses; the gradient nk recompute inverses, nk adjoint transforms and
// the patch fold's inverse.
const (
	wantInverseBF    = 8 * 12859  // pruned: nk band inverses
	wantAdjointBF    = 17 * 12859 // pruned: (nk+1) inverses + nk patches
	wantRefInverseBF = 8 * 24576  // dense reference
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

// The band engine records the per-kernel FFT counter and the fft_inverse
// phase (serial lane), keeping the litho.socs phase tracecheck depends on.
func TestBandEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineBand, 1)
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
	// One forward SOCS pass plus the gradient recompute path: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
	checkButterflies(t, sim, c, wantInverseBF, wantAdjointBF)

	// The dense reference counts dense transforms for the same calls.
	ref := newEngineSim(t, EngineReference, 1)
	refRec := telemetry.New()
	ref.Recorder = refRec
	rf, err := ref.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Gradient(rf, mask); err != nil {
		t.Fatal(err)
	}
	checkButterflies(t, ref, refRec.Counters(), wantRefInverseBF, wantRefAdjointBF)
}
