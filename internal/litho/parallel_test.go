package litho

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

// workerSweep is the worker-count grid of the equivalence tests: the serial
// path, an even split, a count that does not divide the kernel count, and
// whatever the host offers.
func workerSweep() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestParallelForwardMatchesSerial: the parallel SOCS loop must reproduce
// the serial path bit-for-bit — the reduction into the intensity is a fixed
// k-ordered fold regardless of the fan-out — for every grid size, worker
// count and keepAmps mode.
func TestParallelForwardMatchesSerial(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		for _, keep := range []bool{false, true} {
			ref := NewSim(mdl)
			ref.Workers = 1
			want, err := ref.Forward(mask, mdl.Nominal, 1.02, keep)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := NewSim(mdl)
				sim.Workers = w
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Intensity.Equal(want.Intensity, 0) {
					t.Errorf("n=%d workers=%d keep=%v: intensity differs from serial", n, w, keep)
				}
				if keep {
					if len(got.Amps) != len(want.Amps) {
						t.Fatalf("n=%d workers=%d: %d amps, want %d", n, w, len(got.Amps), len(want.Amps))
					}
					for k := range want.Amps {
						if got.Amps[k].MaxAbsDiff(want.Amps[k]) != 0 {
							t.Errorf("n=%d workers=%d: amplitude %d differs from serial", n, w, k)
						}
					}
				}
			}
		}
	}
}

// TestParallelForwardEq7MatchesSerial: same bit-identity for the truncated
// Eq. (7) forward path.
func TestParallelForwardEq7MatchesSerial(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{128, 256} {
		mask := randMask(rng, n)
		ref := NewSim(mdl)
		ref.Workers = 1
		want, err := ref.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep() {
			sim := NewSim(mdl)
			sim.Workers = w
			got, err := sim.ForwardEq7(mask, 2, mdl.Nominal, 0.98)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Intensity.Equal(want.Intensity, 0) {
				t.Errorf("n=%d workers=%d: Eq7 intensity differs from serial", n, w)
			}
		}
	}
}

// TestParallelGradientMatchesSerial: the adjoint pass must be bit-identical
// across worker counts with kept and with rebuilt amplitudes (n = 32 = L)
// and above L.
func TestParallelGradientMatchesSerial(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{32, 64, 128, 256} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		for _, keep := range []bool{false, true} {
			ref := NewSim(mdl)
			ref.Workers = 1
			fRef, err := ref.Forward(mask, mdl.Nominal, 1, keep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Gradient(fRef, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerSweep() {
				sim := NewSim(mdl)
				sim.Workers = w
				f, err := sim.Forward(mask, mdl.Nominal, 1, keep)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want, 0) {
					t.Errorf("n=%d workers=%d keep=%v: gradient differs from serial", n, w, keep)
				}
			}
		}
	}
}

// TestPlanSingleflight: concurrent calls for one size from several Sims
// must all see the same plan instance, since the plan cache is
// process-wide, and each call counts one build or one hit on its own Sim's
// recorder, at most one build in all. The build counts of a fresh cache
// under this race are fft's TestPlanCacheSingleflight.
func TestPlanSingleflight(t *testing.T) {
	const goroutines = 32
	sims := make([]*Sim, 4)
	for i := range sims {
		sims[i] = NewSim(model(t))
		sims[i].Recorder = telemetry.New()
	}
	plans := make([]any, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p, err := sims[g%len(sims)].Plan(64)
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = p
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if plans[g] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", g)
		}
	}
	var builds, hits int64
	for _, sim := range sims {
		c := sim.Recorder.Counters()
		builds += c["litho.plan_builds"]
		hits += c["litho.plan_hits"]
	}
	if builds > 1 || builds+hits != goroutines {
		t.Errorf("%d builds and %d hits over %d calls, want at most 1 build and one count per call", builds, hits, goroutines)
	}
}

// TestConcurrentForwardStress hammers two Sims — which share the
// process-wide scratch pools — from many goroutines with mixed sizes and
// keepAmps modes, running Gradient and Release on the kept fields: a
// race-detector target for the plan cache, the scratch arenas and the
// amplitude leases. Every result is checked against serial references.
func TestConcurrentForwardStress(t *testing.T) {
	mdl := model(t)
	sims := []*Sim{NewSim(mdl), NewSim(mdl)}
	for _, sim := range sims {
		sim.Workers = 2
	}

	rng := rand.New(rand.NewSource(14))
	masks := map[int]*grid.Mat{64: randMask(rng, 64), 128: randMask(rng, 128)}
	refs := make(map[int]*grid.Mat)
	refGrads := make(map[int]*grid.Mat)
	for n, m := range masks {
		ref := NewSim(mdl)
		ref.Workers = 1
		f, err := ref.Forward(m, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		refs[n] = f.Intensity
		if refGrads[n], err = ref.Gradient(f, m); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sim := sims[g/2%len(sims)]
			n := 64
			if g%2 == 1 {
				n = 128
			}
			for it := 0; it < 3; it++ {
				keep := (g+it)%2 == 0
				f, err := sim.Forward(masks[n], mdl.Nominal, 1, keep)
				if err != nil {
					t.Error(err)
					return
				}
				if !f.Intensity.Equal(refs[n], 0) {
					t.Errorf("goroutine %d: concurrent forward at n=%d diverged", g, n)
					return
				}
				if keep {
					grad, err := sim.Gradient(f, masks[n])
					sim.Release(f)
					if err != nil {
						t.Error(err)
						return
					}
					if !grad.Equal(refGrads[n], 0) {
						t.Errorf("goroutine %d: concurrent gradient at n=%d diverged", g, n)
						return
					}
				}
				if _, err := sim.Plan(256); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
