package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func maxDiff(a, b []complex128) float64 {
	var d float64
	for i := range a {
		if v := cmplx.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestNewPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) succeeded, want error", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if d := maxDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: max diff vs naive DFT %g", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(9)) // 2..512
		p, err := NewPlan(n)
		if err != nil {
			return false
		}
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		return maxDiff(x, y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	p, _ := NewPlan(n)
	x := randVec(rng, n)
	var eTime float64
	for _, v := range x {
		eTime += real(v)*real(v) + imag(v)*imag(v)
	}
	y := append([]complex128(nil), x...)
	p.Forward(y)
	var eFreq float64
	for _, v := range y {
		eFreq += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(eFreq/float64(n)-eTime) > 1e-9*eTime {
		t.Errorf("Parseval violated: time %g, freq/N %g", eTime, eFreq/float64(n))
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	p, _ := NewPlan(n)
	a := randVec(rng, n)
	b := randVec(rng, n)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	fs := append([]complex128(nil), sum...)
	p.Forward(fa)
	p.Forward(fb)
	p.Forward(fs)
	for i := range fs {
		want := 2*fa[i] + 3*fb[i]
		if cmplx.Abs(fs[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestBufferLengthPanics(t *testing.T) {
	p, _ := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong buffer length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func rand2D(rng *rand.Rand, w, h int) *grid.CMat {
	m := grid.NewCMat(w, h)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestPlan2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{8, 8}, {16, 4}, {4, 32}, {64, 64}} {
		p, err := NewPlan2(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		m := rand2D(rng, dims[0], dims[1])
		c := m.Clone()
		p.Forward(c)
		p.Inverse(c)
		if d := m.MaxAbsDiff(c); d > 1e-9 {
			t.Errorf("%dx%d: round-trip max diff %g", dims[0], dims[1], d)
		}
	}
}

func TestPlan2MatchesNaive2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w, h = 8, 4
	p, _ := NewPlan2(w, h)
	m := rand2D(rng, w, h)
	got := m.Clone()
	p.Forward(got)
	for ky := 0; ky < h; ky++ {
		for kx := 0; kx < w; kx++ {
			var s complex128
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					ang := -2 * math.Pi * (float64(kx*x)/float64(w) + float64(ky*y)/float64(h))
					s += m.At(x, y) * cmplx.Exp(complex(0, ang))
				}
			}
			if cmplx.Abs(got.At(kx, ky)-s) > 1e-9 {
				t.Fatalf("2D DFT mismatch at (%d,%d): got %v want %v", kx, ky, got.At(kx, ky), s)
			}
		}
	}
}

// TestConvolutionTheorem: circular convolution in space equals element-wise
// product in frequency. This is the identity the Hopkins model relies on.
func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 16
	p, _ := NewPlan2(n, n)
	a := rand2D(rng, n, n)
	b := rand2D(rng, n, n)

	// Direct circular convolution.
	direct := grid.NewCMat(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			var s complex128
			for v := 0; v < n; v++ {
				for u := 0; u < n; u++ {
					s += a.At(u, v) * b.At(((x-u)%n+n)%n, ((y-v)%n+n)%n)
				}
			}
			direct.Set(x, y, s)
		}
	}

	fa, fb := a.Clone(), b.Clone()
	p.Forward(fa)
	p.Forward(fb)
	fa.MulElem(fb)
	p.Inverse(fa)
	if d := fa.MaxAbsDiff(direct); d > 1e-7 {
		t.Errorf("convolution theorem violated: max diff %g", d)
	}
}

func TestTruncateCenteredKeepsLowFrequencies(t *testing.T) {
	const n, m = 16, 8
	spec := grid.NewCMat(n, n)
	// Tag each signed frequency with a recognisable value.
	for fy := -n / 2; fy < n/2; fy++ {
		for fx := -n / 2; fx < n/2; fx++ {
			spec.Set((fx+n)%n, (fy+n)%n, complex(float64(fx), float64(fy)))
		}
	}
	tr := TruncateCentered(spec, m)
	for fy := -m / 2; fy < m/2; fy++ {
		for fx := -m / 2; fx < m/2; fx++ {
			got := tr.At((fx+m)%m, (fy+m)%m)
			if got != complex(float64(fx), float64(fy)) {
				t.Fatalf("truncated bin (%d,%d) = %v", fx, fy, got)
			}
		}
	}
}

func TestTruncateEmbedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 32, 8
	spec := rand2D(rng, m, m)
	emb := EmbedCentered(spec, n)
	back := TruncateCentered(emb, m)
	if d := spec.MaxAbsDiff(back); d > 0 {
		t.Errorf("Truncate(Embed(x)) != x: diff %g", d)
	}
}

// TestTruncationEqualsSubsampling: the core identity of Eq. (7). For a
// band-limited signal, inverse-transforming the (1/s²-scaled) truncated
// spectrum at size n/s reproduces the full-size inverse transform sampled
// every s pixels.
func TestTruncationEqualsSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, s = 32, 4
	const m = n / s
	// Build a spectrum supported only on |f| < m/2 (band-limited).
	spec := grid.NewCMat(n, n)
	for fy := -m/2 + 1; fy < m/2; fy++ {
		for fx := -m/2 + 1; fx < m/2; fx++ {
			spec.Set((fx+n)%n, (fy+n)%n, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	pn, _ := NewPlan2(n, n)
	pm, _ := NewPlan2(m, m)

	full := spec.Clone()
	pn.Inverse(full)

	small := TruncateCentered(spec, m)
	small.Scale(complex(1/float64(s*s), 0))
	// Undo the extra normalisation difference: Inverse at size m divides by
	// m², Inverse at size n divides by n² = m²·s². The 1/s² scale accounts
	// for it, matching Eq. (7).
	pm.Inverse(small)

	var d float64
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			if v := cmplx.Abs(small.At(x, y) - full.At(x*s, y*s)); v > d {
				d = v
			}
		}
	}
	if d > 1e-9 {
		t.Errorf("Eq.(7) identity violated: max diff %g", d)
	}
}

// bandOf returns the centered P×P band of the n×n spectrum (CropBand).
func bandOf(spec *grid.CMat, p int) *grid.CMat {
	out := grid.NewCMat(p, p)
	CropBand(out, spec)
	return out
}

// ApplyKernel's product from a band wider than the kernel (S = 9, P = 5)
// is the kernel times the full spectrum inside the support and exact +0
// outside it.
func TestApplyKernelMatchesManualProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, p = 16, 5
	spec := rand2D(rng, n, n)
	ker := rand2D(rng, p, p)
	out := ApplyKernel(nil, bandOf(spec, 9), ker, n, 1)
	h := p / 2
	for fy := -n / 2; fy < n/2; fy++ {
		for fx := -n / 2; fx < n/2; fx++ {
			got := out.At((fx+n)%n, (fy+n)%n)
			var want complex128
			if fx >= -h && fx <= h && fy >= -h && fy <= h {
				want = ker.At(fx+h, fy+h) * spec.At((fx+n)%n, (fy+n)%n)
			}
			if cmplx.Abs(got-want) > 1e-12 {
				t.Fatalf("ApplyKernel bin (%d,%d): got %v want %v", fx, fy, got, want)
			}
		}
	}
}

// Eq. 7's truncation is implicit in the band: the band of the n×n
// spectrum is the band of its truncation to m, and the product at m
// equals the truncation of the product at n, bit for bit.
func TestApplyKernelTruncatedEqualsTruncateOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, m, p = 32, 8, 5
	spec := rand2D(rng, n, n)
	ker := rand2D(rng, p, p)
	band := bandOf(spec, p)
	if i, ok := equalBits(bandOf(TruncateCentered(spec, m), p), band); !ok {
		t.Fatalf("the band of the truncated spectrum differs at %d", i)
	}
	direct := ApplyKernel(nil, band, ker, m, complex(0.25, 0))
	fullProduct := ApplyKernel(nil, band, ker, n, complex(0.25, 0))
	viaTrunc := TruncateCentered(fullProduct, m)
	if i, ok := equalBits(direct, viaTrunc); !ok {
		t.Errorf("truncated ApplyKernel differs from Truncate(product) at %d", i)
	}
}

// TestApplyKernelAdjointProperty verifies ⟨K·x, y⟩ = ⟨x, Kᴴ·y⟩ over the
// complex inner product (real part), which the gradient assembly relies on.
func TestApplyKernelAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m, p = 16, 8, 5
	x := rand2D(rng, n, n)
	y := rand2D(rng, m, m)
	ker := rand2D(rng, p, p)
	kx := ApplyKernel(nil, bandOf(x, p), ker, m, 1)
	// ⟨Kx, y⟩ = Σ conj(Kx)·y
	var lhs complex128
	for i := range kx.Data {
		v := kx.Data[i]
		lhs += complex(real(v), -imag(v)) * y.Data[i]
	}
	acc := grid.NewCMat(n, n)
	AccumulateKernelAdjoint(acc, y, ker, 1)
	var rhs complex128
	for i := range x.Data {
		v := x.Data[i]
		rhs += complex(real(v), -imag(v)) * acc.Data[i]
	}
	if cmplx.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("kernel adjoint identity violated: lhs %v rhs %v", lhs, rhs)
	}
}

func TestShiftInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := rand2D(rng, 8, 8)
	back := Shift(Shift(m))
	if d := m.MaxAbsDiff(back); d > 0 {
		t.Errorf("Shift∘Shift != identity: %g", d)
	}
}

func TestShiftMovesDCToCenter(t *testing.T) {
	m := grid.NewCMat(8, 8)
	m.Set(0, 0, 1)
	s := Shift(m)
	if s.At(4, 4) != 1 {
		t.Errorf("DC not moved to center: %v", s.At(4, 4))
	}
}
