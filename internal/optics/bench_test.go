package optics

import "testing"

func BenchmarkKernelSetBuild(b *testing.B) {
	for _, sc := range []struct {
		name string
		c    Config
	}{{"TestScale", TestScale()}, {"iltbench", iltbenchScale()}, {"paper", Default()}} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildKernelSet(sc.c, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHermitianEigen32(b *testing.B) {
	const n = 32
	c := TestScale()
	c.SourceGrid = 5
	tcc := denseTCC(sourceColumns(c, 0))
	dim := c.P() * c.P()
	// Use a fixed 32×32 Hermitian block sampled from the TCC.
	base := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			base[i*n+j] = tcc[i*dim+j]
		}
	}
	work := make([]complex128, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		if _, _, err := HermitianEigen(n, work); err != nil {
			b.Fatal(err)
		}
	}
}
