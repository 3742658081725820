package optics

import (
	"math"
	"math/rand"
	"testing"
)

// iltbenchScale is the optics configuration of the end-to-end benchmark's
// workloads: a 1024 nm field (P = 27) with 12 kernels.
func iltbenchScale() Config {
	c := Default()
	c.FieldNM = 1024
	c.NumKernels = 12
	return c
}

// denseMatVecBlock is the dense row loop MatVecBlock replaced: every row
// walks all Dim entries, skipping exact zeros, one vector at a time.
func denseMatVecBlock(t *TCC, dst, src [][]complex128) {
	dim := t.Dim
	for i := 0; i < dim; i++ {
		row := t.Data[i*dim : (i+1)*dim]
		for k := range src {
			var acc complex128
			s := src[k]
			for j, r := range row {
				if r != 0 {
					acc += r * s[j]
				}
			}
			dst[k][i] = acc
		}
	}
}

// TestMatVecBlockMatchesDense holds the packed, four-vector product bit for
// bit to the dense loop, at block widths 1–9 (the four-wide passes and every
// tail) on the nominal and defocus TCCs of both scales.
func TestMatVecBlockMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []Config{TestScale(), iltbenchScale()} {
		for _, defocus := range []float64{0, c.DefocusNM} {
			tcc := BuildTCC(c, defocus)
			for width := 1; width <= 9; width++ {
				src := make([][]complex128, width)
				got := make([][]complex128, width)
				want := make([][]complex128, width)
				for k := range src {
					src[k] = make([]complex128, tcc.Dim)
					got[k] = make([]complex128, tcc.Dim)
					want[k] = make([]complex128, tcc.Dim)
					for i := range src[k] {
						src[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
				}
				tcc.MatVecBlock(got, src)
				denseMatVecBlock(tcc, want, src)
				for k := range got {
					for i, g := range got[k] {
						w := want[k][i]
						if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
							math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
							t.Fatalf("P=%d defocus=%g width %d: (T·src[%d])[%d] = %v, dense loop gives %v",
								tcc.P, defocus, width, k, i, g, w)
						}
					}
				}
			}
		}
	}
}

// TestKernelSynthesisWorkCounts pins the exact work of kernel synthesis: the
// packed TCC's nonzero count (both focus states share one support) and the
// block products of one kernel-set build — 40 subspace steps plus 8
// convergence probes, whose products the next step or the Rayleigh–Ritz
// step reuses, so 41 rather than 49.
func TestKernelSynthesisWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c        Config
		nnz, dim int
	}{
		{"TestScale", TestScale(), 8005, 169},
		{"iltbench", iltbenchScale(), 168745, 729},
	} {
		for _, defocus := range []float64{0, tc.c.DefocusNM} {
			tcc := BuildTCC(tc.c, defocus)
			if tcc.Dim != tc.dim || len(tcc.vals) != tc.nnz || len(tcc.cols) != tc.nnz {
				t.Errorf("%s defocus=%g: %d packed nonzeros (%d columns) of %d², want %d of %d²",
					tc.name, defocus, len(tcc.vals), len(tcc.cols), tcc.Dim, tc.nnz, tc.dim)
			}
		}
	}
	tcc := BuildTCC(TestScale(), 0)
	if _, _, err := topEigenpairs(tcc, TestScale().NumKernels); err != nil {
		t.Fatal(err)
	}
	if got := tcc.products.Load(); got != 41 {
		t.Errorf("one kernel-set build took %d block products, want 41", got)
	}
}
