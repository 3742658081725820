package fft

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func benchMatrix(n int) *grid.CMat {
	rng := rand.New(rand.NewSource(1))
	m := grid.NewCMat(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func benchmark2D(b *testing.B, n int) {
	p, err := NewPlan2(n, n)
	if err != nil {
		b.Fatal(err)
	}
	m := benchMatrix(n)
	b.SetBytes(int64(n * n * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(m)
		p.Inverse(m)
	}
}

func BenchmarkFFT2_64(b *testing.B)   { benchmark2D(b, 64) }
func BenchmarkFFT2_256(b *testing.B)  { benchmark2D(b, 256) }
func BenchmarkFFT2_1024(b *testing.B) { benchmark2D(b, 1024) }

func BenchmarkFFT1D_4096(b *testing.B) {
	p, err := NewPlan(4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

func BenchmarkApplyKernel(b *testing.B) {
	spec := benchMatrix(35)
	ker := benchMatrix(35)
	var dst *grid.CMat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ApplyKernel(dst, spec, ker, 64, complex(1.0/16, 0))
	}
}

func benchmarkInverseBand(b *testing.B, m, p int) {
	plan, err := NewPlan2(m, m)
	if err != nil {
		b.Fatal(err)
	}
	src := benchMatrix(p)
	dst := grid.NewMat(m, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.InverseBandReal(dst, src, 1)
	}
}

func benchmarkInverseDense(b *testing.B, m, p int) {
	plan, err := NewPlan2(m, m)
	if err != nil {
		b.Fatal(err)
	}
	src := benchMatrix(p)
	ker := benchMatrix(p)
	var dst *grid.CMat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ApplyKernel(dst, src, ker, m, 1)
		plan.InverseNoNorm(dst)
	}
}

// The gradient's final inverse of a P×P band vs the dense reference
// pipeline (product + inverse: the dense path pays ApplyKernel's m² clear
// on every reuse).
func BenchmarkInverseBand_1024_P35(b *testing.B)  { benchmarkInverseBand(b, 1024, 35) }
func BenchmarkInverseDense_1024_P35(b *testing.B) { benchmarkInverseDense(b, 1024, 35) }
func BenchmarkInverseBand_256_P13(b *testing.B)   { benchmarkInverseBand(b, 256, 13) }
func BenchmarkInverseDense_256_P13(b *testing.B)  { benchmarkInverseDense(b, 256, 13) }

func benchMask(m int) *grid.Mat {
	rng := rand.New(rand.NewSource(3))
	mask := grid.NewMat(m, m)
	for i := range mask.Data {
		mask.Data[i] = rng.Float64()
	}
	return mask
}

func BenchmarkForwardRealBand_512_P35(b *testing.B) {
	plan, err := NewPlan2(512, 512)
	if err != nil {
		b.Fatal(err)
	}
	mask := benchMask(512)
	dst := grid.NewCMat(35, 35)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ForwardRealBand(dst, mask, 1)
	}
}

func BenchmarkForwardDense_1024(b *testing.B) {
	plan, err := NewPlan2(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	mask := benchMask(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := grid.ComplexFromReal(mask)
		plan.Forward(dst)
	}
}

// One gradient amplitude's gather at 512 px: every 16-row band of a tiled
// amplitude times dL/dI, on the kernel this host runs.
func BenchmarkGatherTiles_512(b *testing.B) {
	const m = 512
	plan, err := NewPlan(m)
	if err != nil {
		b.Fatal(err)
	}
	amp := benchMatrix(m)
	d := benchMask(m)
	band := make([]complex128, gatherRows*m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y0 := 0; y0 < m; y0 += gatherRows {
			plan.gatherTiles(band, amp.Data, d.Data, y0)
		}
	}
}
