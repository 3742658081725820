package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// equalBits reports the first element where a and b differ in raw IEEE-754
// bits (so +0 vs -0 and NaN payloads count as differences).
func equalBits(a, b *grid.CMat) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return i, false
		}
	}
	return 0, true
}

// embedBand zero-embeds the centered P×P band into an m×m DC-at-zero
// spectrum: the dense input the band transforms stand for.
func embedBand(band *grid.CMat, m int) *grid.CMat {
	out := grid.NewCMat(m, m)
	p, h := band.W, band.W/2
	for fy := -h; fy <= h; fy++ {
		for fx := -h; fx <= h; fx++ {
			out.Data[((fy+m)%m)*m+(fx+m)%m] = band.Data[(fy+h)*p+fx+h]
		}
	}
	return out
}

// poisonedMat returns an m×m real matrix filled with NaN, standing for
// pooled garbage a transform must fully overwrite.
func poisonedMat(m int) *grid.Mat {
	out := grid.NewMat(m, m)
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	return out
}

// InverseBandReal is bit for bit the real part of the dense InverseNoNorm
// of the zero-embedded band, for every odd support P = 1 … 63 below the
// grid and m = 4 … 512, at several worker counts, starting from a
// NaN-poisoned dst and leaving src untouched; band cells include signed
// zeros.
func TestInverseBandBitIdenticalToInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for m := 4; m <= 512; m *= 2 {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 63 && p < m; p += 2 {
			src := randCMatFFT(rng, p, p)
			for i := range src.Data {
				switch i % 11 {
				case 3:
					src.Data[i] = complex(math.Copysign(0, -1), imag(src.Data[i]))
				case 7:
					src.Data[i] = complex(real(src.Data[i]), math.Copysign(0, -1))
				}
			}
			want := embedBand(src, m)
			plan.InverseNoNorm(want)
			before := src.Clone()
			for _, w := range []int{1, 3} {
				got := poisonedMat(m)
				plan.InverseBandReal(got, src, w)
				for i, v := range got.Data {
					if math.Float64bits(v) != math.Float64bits(real(want.Data[i])) {
						t.Fatalf("m=%d P=%d workers=%d: cell %d = %v, Re(InverseNoNorm) gives %v", m, p, w, i, v, real(want.Data[i]))
					}
				}
			}
			if i, ok := equalBits(src, before); !ok {
				t.Fatalf("m=%d P=%d: InverseBandReal modified src at %d", m, p, i)
			}
		}
	}
}

// A band as wide as the grid (or wider) has no pruned form and panics; an
// empty band (+0 in every cell) inverts to an all-+0 image whatever dst
// held.
func TestInverseBandFullCoverAndEmpty(t *testing.T) {
	const m, p = 32, 13
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range []int{m + 1, m + 3} { // the odd sizes P ≥ m
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P=%d: InverseBandReal accepted a band covering the %d-px grid", full, m)
				}
			}()
			plan.InverseBandReal(grid.NewMat(m, m), grid.NewCMat(full, full), 1)
		}()
	}

	got := poisonedMat(m)
	plan.InverseBandReal(got, grid.NewCMat(p, p), 2)
	for i, v := range got.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("empty band inverted to %v at %d, want +0", v, i)
		}
	}
}

func TestBandSpecRowMapping(t *testing.T) {
	b := BandSpec{Half: 2}
	const m = 16
	if got := b.Rows(m); got != 5 {
		t.Fatalf("Rows = %d, want 5", got)
	}
	want := []int{0, 1, 2, 14, 15}
	for i, w := range want {
		if got := b.Row(i, m); got != w {
			t.Errorf("Row(%d) = %d, want %d", i, got, w)
		}
	}
	if !(BandSpec{Half: 8}).Covers(m) || (BandSpec{Half: 7}).Covers(m) {
		t.Error("Covers boundary wrong")
	}
}

// packedForwardReal is the one-lane two-for-one real transform of the
// whole m×m spectrum that ForwardRealBand prunes: row pairs (2i, 2i+1)
// packed as a + i·b through Plan.Forward, the Hermitian unpack, then
// Plan.Forward per column. Every band cell must keep its bits.
func packedForwardReal(p *Plan2, src *grid.Mat) *grid.CMat {
	m := p.W()
	dst := grid.NewCMat(m, m)
	buf := make([]complex128, m)
	for i := 0; i < m/2; i++ {
		ra, rb := src.Data[2*i*m:(2*i+1)*m], src.Data[(2*i+1)*m:(2*i+2)*m]
		for x := range buf {
			buf[x] = complex(ra[x], rb[x])
		}
		p.rowP.Forward(buf)
		da, db := dst.Data[2*i*m:(2*i+1)*m], dst.Data[(2*i+1)*m:(2*i+2)*m]
		for k := 0; k < m; k++ {
			zk := buf[k]
			zm := buf[(m-k)&(m-1)]
			zmc := complex(real(zm), -imag(zm))
			da[k] = (zk + zmc) * 0.5
			db[k] = (zk - zmc) * complex(0, -0.5)
		}
	}
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			buf[y] = dst.Data[y*m+x]
		}
		p.colP.Forward(buf)
		for y := 0; y < m; y++ {
			dst.Data[y*m+x] = buf[y]
		}
	}
	return dst
}

// Every band cell of ForwardRealBand has the bits of the full packed
// spectrum (non-finite in both where a sum overflows), for m = 4 … 1024,
// P ∈ {1, 3, 13, 27, 35} below the grid, random masks and masks of ±0,
// subnormals and magnitudes 1e−300 … 1e300, at several worker counts and
// into a poisoned dst.
func TestForwardRealBandMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for m := 4; m <= 1024; m *= 2 {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, special := range []bool{false, true} {
			mask := grid.NewMat(m, m)
			for i := range mask.Data {
				if special {
					mask.Data[i] = stage4Input(rng)
				} else {
					mask.Data[i] = rng.Float64()
				}
			}
			full := packedForwardReal(plan, mask)
			for _, p := range []int{1, 3, 13, 27, 35} {
				if p >= m {
					continue
				}
				want := grid.NewCMat(p, p)
				CropBand(want, full)
				for _, w := range []int{1, 3} {
					got := grid.NewCMat(p, p)
					for i := range got.Data {
						got.Data[i] = complex(math.NaN(), math.Inf(1))
					}
					plan.ForwardRealBand(got, mask, w)
					for i := range got.Data {
						if !stage4Same(got.Data[i], want.Data[i]) {
							t.Fatalf("m=%d P=%d special=%v workers=%d: band cell %d = %v, the packed spectrum gives %v",
								m, p, special, w, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// ForwardRealBand agrees with the band of ComplexFromReal+Forward to
// rounding: the packed two-for-one transform reassociates the same
// arithmetic, so the comparison is tolerance-based (scaled by the spectrum
// magnitude), not bitwise. A grid whose side is not divisible by 4 (m = 2)
// and a band as wide as the grid panic.
func TestForwardRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range []struct {
		name string
		m, p int
	}{{"m=2", 2, 1}, {"P=m", 8, 9}, {"even P", 8, 4}} {
		plan, err := NewPlan2(c.m, c.m)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ForwardRealBand accepted the shape", c.name)
				}
			}()
			plan.ForwardRealBand(grid.NewCMat(c.p, c.p), grid.NewMat(c.m, c.m), 1)
		}()
	}
	for _, m := range []int{4, 8, 16, 64, 128} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		mask := grid.NewMat(m, m)
		for i := range mask.Data {
			mask.Data[i] = rng.Float64()
		}
		dense := grid.ComplexFromReal(mask)
		plan.Forward(dense)
		var maxMag float64
		for _, v := range dense.Data {
			if a := math.Hypot(real(v), imag(v)); a > maxMag {
				maxMag = a
			}
		}
		tol := 1e-13 * maxMag * float64(plan.rowP.logN+2)
		for _, p := range []int{1, 3, min(13, m-1), m - 1} {
			want := grid.NewCMat(p, p)
			CropBand(want, dense)
			got := grid.NewCMat(p, p)
			plan.ForwardRealBand(got, mask, 2)
			if d := got.MaxAbsDiff(want); d > tol {
				t.Errorf("m=%d P=%d: ForwardRealBand differs from the dense band by %g (tol %g)", m, p, d, tol)
			}
		}
	}
}

func TestForwardRealZeroMaskIsExactlyZero(t *testing.T) {
	const m, p = 32, 13
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	got := grid.NewCMat(p, p)
	for i := range got.Data {
		got.Data[i] = complex(math.NaN(), math.NaN())
	}
	plan.ForwardRealBand(got, grid.NewMat(m, m), 1)
	for i, v := range got.Data {
		if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
			t.Fatalf("zero mask produced %v at %d", v, i)
		}
	}
}
