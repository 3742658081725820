package litho

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/grid"
)

func benchSetup(b *testing.B, n int) (*Sim, *grid.Mat) {
	b.Helper()
	sim := NewSim(model(b))
	rng := rand.New(rand.NewSource(7))
	mask := grid.NewMat(n, n)
	for i := range mask.Data {
		mask.Data[i] = rng.Float64()
	}
	// Warm the plan cache outside the timed region.
	if _, err := sim.Forward(mask, sim.Model.Nominal, 1, false); err != nil {
		b.Fatal(err)
	}
	return sim, mask
}

func BenchmarkForward128(b *testing.B) {
	sim, mask := benchSetup(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Forward(mask, sim.Model.Nominal, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardEq7Scale4(b *testing.B) {
	sim, mask := benchSetup(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ForwardEq7(mask, 4, sim.Model.Nominal, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGradient128(b *testing.B) {
	sim, mask := benchSetup(b, 128)
	dLdI := grid.NewMat(128, 128)
	dLdI.Fill(0.5)
	f, err := sim.Forward(mask, sim.Model.Nominal, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Gradient(f, dLdI); err != nil {
			b.Fatal(err)
		}
	}
}

// Workers-parameterized benchmarks: the speedup curve of the parallel SOCS
// loops. ns/op tracks the wall-clock win; allocs/op guards the pooled-
// scratch design (the kernel loop must not allocate in steady state).
func benchWorkerCounts() []int { return []int{1, 2, 4, 8} }

func BenchmarkForwardWorkers(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sim, mask := benchSetup(b, 256)
			sim.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Forward(mask, sim.Model.Nominal, 1, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGradientWorkers(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sim, mask := benchSetup(b, 256)
			sim.Workers = w
			dLdI := grid.NewMat(256, 256)
			dLdI.Fill(0.5)
			f, err := sim.Forward(mask, sim.Model.Nominal, 1, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Gradient(f, dLdI); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestForwardSteadyStateAllocs enforces the scratch-arena claim: once the
// pools are warm, the serial per-kernel loop performs no allocation beyond
// the per-call outputs (mask spectrum, intensity, field header — a small
// constant independent of the kernel count).
func TestForwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; alloc counts are unstable")
	}
	sim := NewSim(model(t))
	sim.Workers = 1
	rng := rand.New(rand.NewSource(21))
	mask := randMask(rng, 128)
	// Warm the plan cache and the scratch pools.
	for i := 0; i < 3; i++ {
		if _, err := sim.Forward(mask, sim.Model.Nominal, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sim.Forward(mask, sim.Model.Nominal, 1, false); err != nil {
			t.Fatal(err)
		}
	})
	// 5 output allocations (spec struct+data, intensity struct+data, field)
	// plus pool-refill noise when a GC empties the arenas mid-measurement.
	if allocs > 12 {
		t.Errorf("Forward allocates %.1f objects/run in steady state, want ≤ 12 (kernel loop must be allocation-free)", allocs)
	}

	// Kept-amplitude lane, which runs at m ≤ L = adjointGrid(P) (32 for the
	// test model): a Forward(keep) → Gradient → Release cycle leases its nk
	// amplitudes from the pool, so once warm it allocates its outputs
	// (intensity and gradient 8·m² B each, a P×P spectrum) and less than
	// one more m×m complex buffer — fresh amplitudes would be nk of them.
	const m = 32
	small := randMask(rng, m)
	dLdI := randMask(rng, m)
	cycle := func() {
		f, err := sim.Forward(small, sim.Model.Nominal, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if f.Amps == nil {
			t.Fatal("Forward(keep) at m = 32 kept no amplitudes")
		}
		if _, err := sim.Gradient(f, dLdI); err != nil {
			t.Fatal(err)
		}
		sim.Release(f)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if outputs := float64(32 * m * m); perRun >= outputs+16*m*m {
		t.Errorf("a kept-amplitude cycle allocates %.0f B/run, want < %.0f B (outputs plus less than one m×m complex buffer)", perRun, outputs+16*m*m)
	}
}

// TestGradientSteadyStateAllocs: same for the adjoint at m = 128, above L,
// where the gradient leases its L-grid amplitudes and band buffers from
// the pools — only the returned gradient matrix may allocate.
func TestGradientSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; alloc counts are unstable")
	}
	sim := NewSim(model(t))
	sim.Workers = 1
	rng := rand.New(rand.NewSource(22))
	mask := randMask(rng, 128)
	dLdI := grid.NewMat(128, 128)
	dLdI.Fill(0.25)
	f, err := sim.Forward(mask, sim.Model.Nominal, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.Gradient(f, dLdI); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sim.Gradient(f, dLdI); err != nil {
			t.Fatal(err)
		}
	})
	// Returned gradient (struct+data), the per-kernel patch slice, and
	// pool-refill noise.
	if allocs > 12 {
		t.Errorf("Gradient allocates %.1f objects/run in steady state, want ≤ 12", allocs)
	}
}

func BenchmarkResistSigmoid(b *testing.B) {
	_, mask := benchSetup(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResistSigmoid(mask, Threshold, Alpha)
	}
}
