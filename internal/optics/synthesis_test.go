package optics

import (
	"math"
	"math/cmplx"
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

// denseTCC assembles the TCC T = V Vᴴ entry by entry from V's columns,
// row-major dim×dim: the oracle the Gram route's eigenpairs are held to.
func denseTCC(cols [][]complex128) []complex128 {
	dim := len(cols[0])
	t := make([]complex128, dim*dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			var s complex128
			for _, v := range cols {
				s += v[i] * cmplx.Conj(v[j])
			}
			t[i*dim+j] = s
		}
	}
	return t
}

// eigenCheck returns ‖T h − λ h‖ and ‖h‖ for the dense dim×dim T.
func eigenCheck(tt []complex128, lambda float64, h []complex128) (res, norm float64) {
	dim := len(h)
	for i := 0; i < dim; i++ {
		var th complex128
		for j, v := range h {
			th += tt[i*dim+j] * v
		}
		d := th - complex(lambda, 0)*h[i]
		res += real(d)*real(d) + imag(d)*imag(d)
		norm += real(h[i])*real(h[i]) + imag(h[i])*imag(h[i])
	}
	return math.Sqrt(res), math.Sqrt(norm)
}

// TestKernelEigenResidual holds every eigenpair of the Gram solve to the
// dense TCC at TestScale, the iltbench shape and paper scale, in both focus
// states: each is a full set, each raw eigenvector satisfies
// ‖T h − λ h‖ ≤ 1e-10·λ·‖h‖, the eigenvalues sum to no more than the trace,
// and the trace is T's. At TestScale the eigenvalues also match a dense
// Jacobi solve of the 169×169 T.
func TestKernelEigenResidual(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     Config
		dense bool
	}{{"TestScale", TestScale(), true}, {"iltbench", iltbenchScale(), false}, {"paper", Default(), false}} {
		for _, defocus := range []float64{0, tc.c.DefocusNM} {
			cols := sourceColumns(tc.c, defocus)
			vals, vecs, trace, err := tccEigenpairs(cols, tc.c.NumKernels)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != tc.c.NumKernels || len(vecs) != len(vals) {
				t.Fatalf("%s defocus=%g: %d eigenvalues and %d vectors, want %d",
					tc.name, defocus, len(vals), len(vecs), tc.c.NumKernels)
			}
			tt := denseTCC(cols)
			dim := len(cols[0])
			var sum, dtrace float64
			for k, h := range vecs {
				if res, norm := eigenCheck(tt, vals[k], h); res > 1e-10*vals[k]*norm {
					t.Errorf("%s defocus=%g: eigenpair %d residual %g (λ=%g, ‖h‖=%g)",
						tc.name, defocus, k, res, vals[k], norm)
				}
				sum += vals[k]
			}
			for i := 0; i < dim; i++ {
				dtrace += real(tt[i*dim+i])
			}
			if sum > trace || math.Abs(trace-dtrace) > 1e-12*dtrace {
				t.Errorf("%s defocus=%g: Σλ %g, Gram trace %g, dense trace %g",
					tc.name, defocus, sum, trace, dtrace)
			}
			if !tc.dense {
				continue
			}
			want, _, err := HermitianEigen(dim, tt)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range vals {
				if math.Abs(v-want[k]) > 1e-10*want[k] {
					t.Errorf("%s defocus=%g: λ_%d = %.17g, dense Jacobi gives %.17g",
						tc.name, defocus, k, v, want[k])
				}
			}
		}
	}
}

// TestKernelSetRankFloor builds 24-kernel sets where the TCC's numerical
// rank is below 24: a 512 nm dipole, whose few source points give a Gram
// matrix with eigenvalues at rounding level, and a 128 nm annular source,
// whose P = 5 support has fewer cells than the source has points. Every
// kept eigenvalue clears the floor, every raw kernel is a unit eigenvector
// of T, and the set is shorter than NumKernels.
func TestKernelSetRankFloor(t *testing.T) {
	dipole := Default()
	dipole.FieldNM = 512
	dipole.Shape = Dipole
	small := Default()
	small.FieldNM = 128
	for _, c := range []Config{dipole, small} {
		for _, defocus := range []float64{0, c.DefocusNM} {
			cols := sourceColumns(c, defocus)
			vals, vecs, _, err := tccEigenpairs(cols, c.NumKernels)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) >= c.NumKernels {
				t.Errorf("%v %g nm defocus=%g: %d eigenpairs kept, want fewer than %d",
					c.Shape, c.FieldNM, defocus, len(vals), c.NumKernels)
			}
			tt := denseTCC(cols)
			for k, h := range vecs {
				if vals[k] <= rankFloor*vals[0] {
					t.Errorf("%v %g nm defocus=%g: λ_%d/λ_0 = %g is under the floor",
						c.Shape, c.FieldNM, defocus, k, vals[k]/vals[0])
				}
				res, norm := eigenCheck(tt, vals[k], h)
				if math.Abs(norm-1) > 1e-10 || res > 1e-10*vals[k] {
					t.Errorf("%v %g nm defocus=%g: kernel %d has ‖h‖ = %.17g, residual %g (λ=%g)",
						c.Shape, c.FieldNM, defocus, k, norm, res, vals[k])
				}
			}
			ks, err := buildKernelSet(c, defocus)
			if err != nil {
				t.Fatal(err)
			}
			if len(ks.Kernels) != len(vals) || len(ks.Weights) != len(vals) {
				t.Errorf("%v %g nm defocus=%g: kernel set has %d kernels and %d weights, want %d",
					c.Shape, c.FieldNM, defocus, len(ks.Kernels), len(ks.Weights), len(vals))
			}
		}
	}
}
