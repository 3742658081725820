package optics

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// HermitianEigen diagonalises a small dense Hermitian matrix (row-major n×n)
// with the complex Jacobi method. It returns the eigenvalues in descending
// order and the matching eigenvectors as columns: vecs[i*n+k] is component i
// of eigenvector k. The input slice is clobbered.
//
// The routine solves the Gram matrix of kernel synthesis, where n is the
// number of source points (44 for the default source, at most SourceGrid²),
// so the O(n³)-per-sweep cost is a few milliseconds.
func HermitianEigen(n int, a []complex128) (vals []float64, vecs []complex128, err error) {
	if len(a) != n*n {
		return nil, nil, fmt.Errorf("optics: HermitianEigen matrix length %d != %d²", len(a), n)
	}
	v := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(n, a)
		diag := diagNorm(n, a)
		if off <= 1e-14*(diag+1e-300) {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, nil, fmt.Errorf("optics: Jacobi failed to converge (off=%g, diag=%g)", off, diag)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				rotate(n, a, v, p, q)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = real(a[i*n+i])
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return vals[idx[x]] > vals[idx[y]] })
	sortedVals := make([]float64, n)
	sortedVecs := make([]complex128, n*n)
	for k, j := range idx {
		sortedVals[k] = vals[j]
		for i := 0; i < n; i++ {
			sortedVecs[i*n+k] = v[i*n+j]
		}
	}
	return sortedVals, sortedVecs, nil
}

func offDiagNorm(n int, a []complex128) float64 {
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += cmplx.Abs(a[i*n+j])
		}
	}
	return s
}

func diagNorm(n int, a []complex128) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(real(a[i*n+i]))
	}
	return s
}

// rotate zeroes the (p, q) entry of the Hermitian matrix a with the unitary
// U = diag(e^{iφ}, 1)·R(θ), where φ is the phase of a[p][q] and θ the
// classical Jacobi angle of the phase-stripped real 2×2 block. v accumulates
// the product of rotations (v ← v·U on columns p, q).
func rotate(n int, a, v []complex128, p, q int) {
	apq := a[p*n+q]
	g := cmplx.Abs(apq)
	if g < 1e-300 {
		return
	}
	phase := apq / complex(g, 0) // e^{iφ}
	app := real(a[p*n+p])
	aqq := real(a[q*n+q])

	// Real Jacobi angle for [[app, g], [g, aqq]] (Numerical Recipes form):
	// τ = cot 2θ, t = tan θ the smaller root of t² + 2τt − 1 = 0.
	var t float64
	if diff := aqq - app; diff == 0 {
		t = 1
	} else {
		tau := diff / (2 * g)
		t = math.Copysign(1, tau) / (math.Abs(tau) + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	// U = D·R with D = diag(e^{iφ}, 1) and R the real rotation
	// [[c, s], [−s, c]] on the (p, q) plane:
	// U[p][p] = c·e^{iφ}, U[p][q] = s·e^{iφ}, U[q][p] = −s, U[q][q] = c.
	upp := complex(c, 0) * phase
	upq := complex(s, 0) * phase
	uqp := complex(-s, 0)
	uqq := complex(c, 0)

	// Column update: A ← A·U touches columns p and q.
	for i := 0; i < n; i++ {
		aip := a[i*n+p]
		aiq := a[i*n+q]
		a[i*n+p] = aip*upp + aiq*uqp
		a[i*n+q] = aip*upq + aiq*uqq
	}
	// Row update: A ← Uᴴ·A touches rows p and q.
	cupp := cmplx.Conj(upp)
	cupq := cmplx.Conj(upq)
	cuqp := cmplx.Conj(uqp)
	cuqq := cmplx.Conj(uqq)
	for j := 0; j < n; j++ {
		apj := a[p*n+j]
		aqj := a[q*n+j]
		a[p*n+j] = cupp*apj + cuqp*aqj
		a[q*n+j] = cupq*apj + cuqq*aqj
	}
	// Clean up rounding on the eliminated pair and enforce Hermitian form.
	a[p*n+q] = 0
	a[q*n+p] = 0
	a[p*n+p] = complex(real(a[p*n+p]), 0)
	a[q*n+q] = complex(real(a[q*n+q]), 0)

	// Accumulate eigenvectors: V ← V·U.
	for i := 0; i < n; i++ {
		vip := v[i*n+p]
		viq := v[i*n+q]
		v[i*n+p] = vip*upp + viq*uqp
		v[i*n+q] = vip*upq + viq*uqq
	}
}
