package litho

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// The batch Gradient above L = adjointGrid(P) (batchGradient) runs the
// adjoint on the L grid. It is exact up to
// rounding, so it is held to EngineReference at a relative tolerance on the
// reference's own Field, and bit for bit only to itself across worker
// counts; at m ≤ L the batch gradient keeps the reference's bits.

// bandScale is one kernel-model shape of the tests above L: TestScale
// (P = 13, L = 32), the iltbench shape (1024 nm, 12 kernels: P = 27,
// L = 64) and paper scale (2048 nm, 24 kernels: P = 35, L = 128).
type bandScale struct {
	name  string
	cfg   optics.Config
	sizes []int // grids above L
}

func bandScales() []bandScale {
	ilt := optics.Default()
	ilt.FieldNM = 1024
	ilt.NumKernels = 12
	return []bandScale{
		{"TestScale", optics.TestScale(), []int{64, 128, 256}},
		{"iltbench", ilt, []int{128, 256, 512}},
		{"paper", optics.Default(), []int{256, 512}},
	}
}

var bandModels sync.Map // optics.Config → *optics.Model

// bandModel builds (once per package run) the kernel model of cfg.
func bandModel(t testing.TB, cfg optics.Config) *optics.Model {
	t.Helper()
	if m, ok := bandModels.Load(cfg); ok {
		return m.(*optics.Model)
	}
	m, err := optics.BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := bandModels.LoadOrStore(cfg, m)
	return v.(*optics.Model)
}

// signedField is a random dL/dI in [−1, 1), the sign mix a loss gradient has.
func signedField(rng *rand.Rand, n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// relMaxDiff is max|a − b| / max|b|.
func relMaxDiff(a, b *grid.Mat) float64 {
	var num, den float64
	for i, v := range b.Data {
		num = math.Max(num, math.Abs(a.Data[i]-v))
		den = math.Max(den, math.Abs(v))
	}
	return num / den
}

// TestBandAdjointMatchesReference: on the reference's own Field, the batch
// gradient above L is the dense oracle's to 1e-12 relative (max norm), at
// every shape and size above L and for both kernel sets.
func TestBandAdjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sc := range bandScales() {
		mdl := bandModel(t, sc.cfg)
		ref := NewSim(mdl)
		ref.Engine = EngineReference
		sim := NewSim(mdl)
		worst := 0.0
		sizes := sc.sizes
		if raceEnabled {
			sizes = sizes[:1] // the race detector needs one size per shape, not three
		}
		for _, n := range sizes {
			if n <= adjointGrid(mdl.Nominal.P) {
				t.Fatalf("%s: n = %d is not above L = %d", sc.name, n, adjointGrid(mdl.Nominal.P))
			}
			mask := randMask(rng, n)
			dLdI := signedField(rng, n)
			for _, ks := range []*optics.KernelSet{mdl.Nominal, mdl.Defocus} {
				f, err := ref.Forward(mask, ks, 0.98, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				d := relMaxDiff(got, want)
				if d > 1e-12 {
					t.Errorf("%s n=%d P=%d: batch gradient %.3g from the reference, want ≤ 1e-12", sc.name, n, ks.P, d)
				}
				worst = math.Max(worst, d)
			}
		}
		t.Logf("%s: largest relative deviation %.2g", sc.name, worst)
	}
}

// TestBandAdjointDeterministicAcrossWorkers: the patches above L are
// computed in parallel and folded in ascending k, so its gradient has the
// same bits at every worker count.
func TestBandAdjointDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sc := range bandScales()[:2] {
		mdl := bandModel(t, sc.cfg)
		n := sc.sizes[1]
		mask := randMask(rng, n)
		dLdI := signedField(rng, n)
		for _, ks := range []*optics.KernelSet{mdl.Nominal, mdl.Defocus} {
			var want *grid.Mat
			for _, w := range workerSweep() {
				sim := NewSim(mdl)
				sim.Workers = w
				f, err := sim.Forward(mask, ks, 1.02, true)
				if err != nil {
					t.Fatal(err)
				}
				g, err := sim.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = g
				} else if !g.Equal(want, 0) {
					t.Errorf("%s n=%d P=%d workers=%d: gradient above L differs from workers=1", sc.name, n, ks.P, w)
				}
			}
		}
	}
}

// TestBandAdjointBoundary: at m = L the batch gradient keeps the
// reference's bits with kept and with rebuilt amplitudes; at m = 2L a
// forward asked to keep its amplitudes keeps none, and the gradient runs
// on the L grid — nk more kernel transforms and the L grid's butterflies.
func TestBandAdjointBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sc := range bandScales() {
		mdl := bandModel(t, sc.cfg)
		ks := mdl.Nominal
		l := adjointGrid(ks.P)
		ref := NewSim(mdl)
		ref.Engine = EngineReference
		sim := NewSim(mdl)
		mask := randMask(rng, l)
		dLdI := signedField(rng, l)
		for _, keep := range []bool{false, true} {
			f, err := ref.Forward(mask, ks, 1, keep)
			if err != nil {
				t.Fatal(err)
			}
			if keep && len(f.Amps) != len(ks.Kernels) {
				t.Fatalf("%s m=L=%d: forward kept %d amplitudes, want %d", sc.name, l, len(f.Amps), len(ks.Kernels))
			}
			want, err := ref.Gradient(f, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Gradient(f, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Errorf("%s m=L=%d keep=%v: batch gradient differs from the reference", sc.name, l, keep)
			}
			ref.Release(f)
		}

		m := 2 * l
		rec := telemetry.New()
		sim.Recorder = rec
		f, err := sim.Forward(randMask(rng, m), ks, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if f.Amps != nil {
			t.Errorf("%s m=2L=%d: forward kept %d amplitudes above L", sc.name, m, len(f.Amps))
		}
		if _, err := sim.Gradient(f, signedField(rng, m)); err != nil {
			t.Fatal(err)
		}
		sim.Release(f) // nothing leased: a no-op
		sim.Recorder = nil
		planM, err := sim.Plan(m)
		if err != nil {
			t.Fatal(err)
		}
		planL, err := sim.Plan(l)
		if err != nil {
			t.Fatal(err)
		}
		nk := int64(len(ks.Kernels))
		c := rec.Counters()
		if got := c["litho.kernel_ffts"]; got != 2*nk {
			t.Errorf("%s m=2L: litho.kernel_ffts = %d, want %d (forward and rebuilt amplitudes)", sc.name, got, 2*nk)
		}
		if got, want := c["litho.adjoint_butterflies"], batchAdjointButterflies(planM, planL, f); got != want {
			t.Errorf("%s m=2L: litho.adjoint_butterflies = %d, want the L grid's %d", sc.name, got, want)
		}
	}
}

// The batch gradient's work at TestScale (P = 13, 8 kernels, L = 32), m = 64,
// with the pruned 1-D counts of wantInverseBF's comment: the (2P−1)² band
// of F(dLdI) at 64, (32 + 25) rows and columns of 185 butterflies (stages
// 1–5 whole, 25 of stage 6) = 10545; its inverse at 32, where a band of
// half 12 prunes nothing, (25 + 32)·80 = 4560; per kernel a band inverse
// and a patch at 32, 45·77 = 3465 each (stages 1–4 whole, 13 of stage 5);
// and the final inverse at 64, 77·167 = 12859. On the 64 grid the same work
// would take 17·12859 = 218603.
const wantBandAdjointBF = 10545 + 4560 + 8*2*3465 + 12859 // 83404

// TestBandAdjointButterflies pins the L grid's count at m = 64 by hand,
// so the counter formula is not only checked against itself.
func TestBandAdjointButterflies(t *testing.T) {
	sim := newEngineSim(t, EngineBatch, 1)
	rec := telemetry.New()
	sim.Recorder = rec
	mask := grid.NewMat(64, 64)
	mask.Fill(1)
	f, err := sim.Forward(mask, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, mask); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counters()["litho.adjoint_butterflies"]; got != wantBandAdjointBF {
		t.Errorf("litho.adjoint_butterflies = %d, want %d", got, wantBandAdjointBF)
	}
}
