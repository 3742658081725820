package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func randCMatFFT(rng *rand.Rand, w, h int) *grid.CMat {
	m := grid.NewCMat(w, h)
	for i := range m.Data {
		m.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return m
}

// perKernelFolded runs the dense per-kernel folded path — ApplyKernel with
// the folded scale, InverseNoNorm, AbsSqScaledInto+Add intensity fold in
// ascending k — the reference engine's sequence, which the batch must
// reproduce bit-for-bit.
func perKernelFolded(t *testing.T, plan *Plan2, spec *grid.CMat, kernels []*grid.CMat, scale complex128, weights []float64) ([]*grid.CMat, *grid.Mat) {
	t.Helper()
	m := plan.W()
	outs := make([]*grid.CMat, len(kernels))
	intensity := grid.NewMat(m, m)
	contrib := grid.NewMat(m, m)
	for k, kern := range kernels {
		outs[k] = ApplyKernel(nil, spec, kern, m, scale)
		plan.InverseNoNorm(outs[k])
		outs[k].AbsSqScaledInto(contrib, weights[k])
		intensity.Add(contrib)
	}
	return outs, intensity
}

func batchRun(t *testing.T, plan *Plan2, spec *grid.CMat, kernels []*grid.CMat, scale complex128, weights []float64, workers int, keepAmps bool) ([]*grid.CMat, *grid.Mat) {
	t.Helper()
	m := plan.W()
	b := plan.MulRowsBatch(spec, kernels, scale, workers)
	var outs []*grid.CMat
	if keepAmps {
		outs = make([]*grid.CMat, len(kernels))
		for k := range outs {
			outs[k] = grid.NewCMat(m, m)
		}
	}
	intensity := grid.NewMat(m, m)
	b.InverseColumns(outs, []Fold{{Weights: weights, Intensity: intensity}})
	return outs, intensity
}

// untiled returns the row-major copy of a tiled amplitude (Untile4), the
// layout the dense oracle computes.
func untiled(a *grid.CMat) *grid.CMat {
	out := grid.NewCMat(a.W, a.H)
	Untile4(out, a)
	return out
}

// kernelSupportFor picks an odd kernel support that does not cover size m.
func kernelSupportFor(m int) int {
	p := 35
	if 2*(p/2)+1 >= m {
		p = m/2 - 1
		if p%2 == 0 {
			p--
		}
	}
	return p
}

// TestBatchMatchesPerKernelBitExact: the batched MulRowsBatch +
// InverseColumns pair must reproduce the dense per-kernel folded path
// bit-for-bit — amplitudes (kept tiled, compared row-major through
// Untile4) and the k-ordered intensity fold — across the size sweep
// m ∈ {8…2048}.
func TestBatchMatchesPerKernelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		nk := 6
		if m >= 512 {
			nk = 3
		}
		pk := kernelSupportFor(m)
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := randCMatFFT(rng, pk, pk)
		kernels := make([]*grid.CMat, nk)
		weights := make([]float64, nk)
		for k := range kernels {
			kernels[k] = randCMatFFT(rng, pk, pk)
			weights[k] = rng.Float64() + 0.1
		}
		scale := FoldInverseScale(1, m, m)
		wantAmps, wantI := perKernelFolded(t, plan, spec, kernels, scale, weights)
		for _, keep := range []bool{false, true} {
			gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, 4, keep)
			if !gotI.Equal(wantI, 0) {
				t.Errorf("m=%d P=%d keep=%v: batched intensity differs from per-kernel fold", m, pk, keep)
			}
			if keep {
				for k := range kernels {
					if untiled(gotAmps[k]).MaxAbsDiff(wantAmps[k]) != 0 {
						t.Errorf("m=%d P=%d: batched amplitude %d differs from per-kernel", m, pk, k)
					}
				}
			}
		}
	}
}

// TestBatchTwoFoldsMatchOnePassPerFold: one pass folding two intensities
// (one kernel set at two doses, as the nominal and outer corners are)
// gives each intensity the bits of its own one-fold pass, on top of a
// non-zero starting intensity and at several worker counts.
func TestBatchTwoFoldsMatchOnePassPerFold(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, pk, nk := 64, 13, 5
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := randCMatFFT(rng, pk, pk)
	kernels := make([]*grid.CMat, nk)
	base := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk)
		base[k] = rng.Float64() + 0.1
	}
	doses := []float64{1, 1.02}
	start := grid.NewMat(m, m)
	for i := range start.Data {
		start.Data[i] = rng.Float64()
	}
	scale := FoldInverseScale(1, m, m)
	weightsAt := func(dose float64) []float64 {
		w := make([]float64, nk)
		for k := range w {
			w[k] = dose * base[k]
		}
		return w
	}
	want := make([]*grid.Mat, len(doses))
	for d, dose := range doses {
		want[d] = start.Clone()
		plan.MulRowsBatch(spec, kernels, scale, 1).InverseColumns(nil, []Fold{{Weights: weightsAt(dose), Intensity: want[d]}})
	}
	for _, w := range []int{1, 3} {
		folds := make([]Fold, len(doses))
		for d, dose := range doses {
			folds[d] = Fold{Weights: weightsAt(dose), Intensity: start.Clone()}
		}
		plan.MulRowsBatch(spec, kernels, scale, w).InverseColumns(nil, folds)
		for d := range doses {
			if !folds[d].Intensity.Equal(want[d], 0) {
				t.Errorf("workers=%d: fold %d differs from its one-fold pass", w, d)
			}
		}
	}
}

// TestBatchEq7Spectrum: the batch consumes the band of an n×n spectrum at
// reduced size m < n (the Eq. 7 truncation) identically to ApplyKernel,
// from a band wider than the kernels (S = 21, P = 17): they read its
// centered sub-band.
func TestBatchEq7Spectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m, pk, nk := 256, 64, 17, 4
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := grid.NewCMat(21, 21)
	CropBand(spec, randCMatFFT(rng, n, n))
	kernels := make([]*grid.CMat, nk)
	weights := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk)
		weights[k] = rng.Float64() + 0.1
	}
	scale := FoldInverseScale(complex(0.25, 0), m, m)
	wantAmps, wantI := perKernelFolded(t, plan, spec, kernels, scale, weights)
	gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, 3, true)
	if !gotI.Equal(wantI, 0) {
		t.Error("batched Eq7 intensity differs from per-kernel fold")
	}
	for k := range kernels {
		if untiled(gotAmps[k]).MaxAbsDiff(wantAmps[k]) != 0 {
			t.Errorf("batched Eq7 amplitude %d differs", k)
		}
	}
}

// TestBatchWorkerDeterminism: every worker count produces the same bits —
// the column-block fold is k-ordered within each block and blocks are
// disjoint.
func TestBatchWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, pk, nk := 128, 35, 8
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := randCMatFFT(rng, pk, pk)
	kernels := make([]*grid.CMat, nk)
	weights := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk)
		weights[k] = rng.Float64() + 0.1
	}
	scale := FoldInverseScale(1, m, m)
	wantAmps, wantI := batchRun(t, plan, spec, kernels, scale, weights, 1, true)
	for _, w := range []int{2, 3, 7, 16} {
		gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, w, true)
		if !gotI.Equal(wantI, 0) {
			t.Errorf("workers=%d: intensity differs from serial batch", w)
		}
		for k := range kernels {
			if gotAmps[k].MaxAbsDiff(wantAmps[k]) != 0 {
				t.Errorf("workers=%d: amplitude %d differs from serial batch", w, k)
			}
		}
	}
}

// TestBatchFallbacks: the widest band the batch takes — P = m−1, one short
// of covering — stays on the batched path and bit-identical to the dense
// per-kernel path. (An odd P ≤ m can never cover a power-of-two m ≥ 4.)
func TestBatchFallbacks(t *testing.T) {
	plan, err := NewPlan2(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	spec := randCMatFFT(rng, 15, 15)
	nearly := []*grid.CMat{randCMatFFT(rng, 15, 15)}
	weights := []float64{1}
	scale := FoldInverseScale(1, 16, 16)
	wantAmps, wantI := perKernelFolded(t, plan, spec, nearly, scale, weights)
	gotAmps, gotI := batchRun(t, plan, spec, nearly, scale, weights, 2, true)
	if !gotI.Equal(wantI, 0) || untiled(gotAmps[0]).MaxAbsDiff(wantAmps[0]) != 0 {
		t.Error("near-covering band batch differs from per-kernel path")
	}
}

// TestTile4RoundTrip: Untile4(Tile4(x)) is x bit for bit, Tile4 puts
// element (x, y) at (x/4)·4m + 4y + x%4, and both helpers reject a
// non-square matrix, a side not divisible by 4 and mismatched sides.
func TestTile4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for m := 4; m <= 2048; m *= 2 {
		src := randCMatFFT(rng, m, m)
		tiled := grid.NewCMat(m, m)
		Tile4(tiled, src)
		for _, c := range [][2]int{{0, 0}, {m - 1, 0}, {0, m - 1}, {m - 1, m - 1}, {m / 2, m/4 + 1}} {
			x, y := c[0], c[1]
			if !sameBits(tiled.Data[(x/4)*4*m+4*y+x%4], src.Data[y*m+x]) {
				t.Fatalf("m=%d: Tile4 put element (%d, %d) outside its slot", m, x, y)
			}
		}
		back := grid.NewCMat(m, m)
		Untile4(back, tiled)
		if i, ok := equalBits(back, src); !ok {
			t.Fatalf("m=%d: round trip changed element %d: %v → %v", m, i, src.Data[i], back.Data[i])
		}
	}
	for _, c := range []struct {
		name     string
		dst, src *grid.CMat
	}{
		{"non-square", grid.NewCMat(8, 8), grid.NewCMat(8, 4)},
		{"side not divisible by 4", grid.NewCMat(2, 2), grid.NewCMat(2, 2)},
		{"mismatched sides", grid.NewCMat(4, 4), grid.NewCMat(8, 8)},
	} {
		for _, h := range []struct {
			name string
			op   func(dst, src *grid.CMat)
		}{{"Tile4", Tile4}, {"Untile4", Untile4}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted a %s shape", h.name, c.name)
					}
				}()
				h.op(c.dst, c.src)
			}()
		}
	}
}

// TestSharedTables: plans of one length share one table set, the reuse
// counter advances, and the byte gauge is positive and stable across
// reuse.
func TestSharedTables(t *testing.T) {
	p1, err := NewPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	reuse0 := TableReuse()
	bytes0 := TableBytes()
	if bytes0 <= 0 {
		t.Fatalf("table_bytes %d after building a plan", bytes0)
	}
	p2, err := NewPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	if p1.tab != p2.tab {
		t.Error("two plans of one length do not share tables")
	}
	if TableReuse() != reuse0+1 {
		t.Errorf("table_reuse %d, want %d", TableReuse(), reuse0+1)
	}
	if TableBytes() != bytes0 {
		t.Errorf("table_bytes changed on reuse: %d → %d", bytes0, TableBytes())
	}
	// The shared tables must still produce a correct round trip.
	x := make([]complex128, 512)
	want := make([]complex128, 512)
	rng := rand.New(rand.NewSource(47))
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
		want[i] = x[i]
	}
	p2.Forward(x)
	p1.Inverse(x)
	for i := range x {
		if math.Abs(real(x[i])-real(want[i])) > 1e-12 || math.Abs(imag(x[i])-imag(want[i])) > 1e-12 {
			t.Fatalf("round trip through shared tables diverged at %d", i)
		}
	}
}
