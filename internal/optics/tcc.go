package optics

import (
	"math"
	"sync/atomic"

	"repro/internal/grid"
)

// TCC is the Hopkins transmission cross coefficient matrix restricted to the
// P×P kernel support, flattened to a dim = P² Hermitian matrix:
//
//	T[i][j] = Σ_s J_s · P(f_i + f_s) · conj(P(f_j + f_s)),
//
// with i, j indexing signed frequencies (fx, fy) ∈ [−h, h]² row-major as
// (fy+h)·P + (fx+h). The eigenpairs of T are the SOCS kernels/weights.
type TCC struct {
	P   int
	Dim int
	// Data is row-major Dim×Dim, Hermitian.
	Data []complex128

	// The nonzero entries of Data, packed row by row in ascending column
	// order: row i holds cols[rowPtr[i]:rowPtr[i+1]] and the matching vals.
	// Most of the matrix is exact zeros (68% at P = 27), so MatVecBlock
	// walks only these.
	rowPtr []int
	cols   []int32
	vals   []complex128

	// products counts MatVecBlock calls (block products).
	products atomic.Int64
}

// BuildTCC assembles the TCC matrix for the configuration at the given
// defocus. The assembly is parallelised over matrix rows; the finished
// matrix's nonzero entries are then packed for MatVecBlock.
func BuildTCC(c Config, defocusNM float64) *TCC {
	h := c.kernelHalf()
	p := 2*h + 1
	dim := p * p
	src := DiscretizeSource(c)

	maxSrcF := 0.0
	for _, s := range src {
		if f := math.Hypot(s.FX, s.FY); f > maxSrcF {
			maxSrcF = f
		}
	}
	pt := buildPupilTable(c, defocusNM, maxSrcF)

	// Precompute per-source pupil vectors over the kernel support.
	vecs := make([][]complex128, len(src))
	weights := make([]float64, len(src))
	for si, s := range src {
		v := make([]complex128, dim)
		for fy := -h; fy <= h; fy++ {
			for fx := -h; fx <= h; fx++ {
				v[(fy+h)*p+fx+h] = pt.at(fx, fy, s.FX, s.FY)
			}
		}
		vecs[si] = v
		weights[si] = s.Weight
	}

	t := &TCC{P: p, Dim: dim, Data: make([]complex128, dim*dim)}
	// T = Σ_s w_s v_s v_sᴴ; fill the upper triangle row-parallel, mirror after.
	grid.ParallelFor(0, dim, func(i int) {
		row := t.Data[i*dim : (i+1)*dim]
		for si, v := range vecs {
			vi := v[i]
			if vi == 0 {
				continue
			}
			w := complex(weights[si], 0)
			wvi := w * vi
			for j := i; j < dim; j++ {
				vj := v[j]
				row[j] += wvi * complex(real(vj), -imag(vj))
			}
		}
	})
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			v := t.Data[i*dim+j]
			t.Data[j*dim+i] = complex(real(v), -imag(v))
		}
	}
	t.pack()
	return t
}

// pack fills the packed rows from Data.
func (t *TCC) pack() {
	nnz := 0
	for _, v := range t.Data {
		if v != 0 {
			nnz++
		}
	}
	t.rowPtr = make([]int, t.Dim+1)
	t.cols = make([]int32, 0, nnz)
	t.vals = make([]complex128, 0, nnz)
	for i := 0; i < t.Dim; i++ {
		for j, v := range t.Data[i*t.Dim : (i+1)*t.Dim] {
			if v != 0 {
				t.cols = append(t.cols, int32(j))
				t.vals = append(t.vals, v)
			}
		}
		t.rowPtr[i+1] = len(t.vals)
	}
}

// MatVecBlock computes dst = T·src for a block of column vectors stored as
// src[k][i] (k = vector index, i = component). dst must have the same shape.
// Each row walks only its packed nonzeros and advances four vectors per
// pass, one accumulator each, with a one-vector tail for len(src) % 4. An
// output therefore adds the same products in the same ascending-j order as
// the dense Σ_j T[i][j]·src[k][j] with its exact zeros skipped, so the
// result does not depend on the packing or on the block width. The product
// is parallelised over matrix rows.
func (t *TCC) MatVecBlock(dst, src [][]complex128) {
	t.products.Add(1)
	grid.ParallelFor(0, t.Dim, func(i int) {
		lo, hi := t.rowPtr[i], t.rowPtr[i+1]
		cols, vals := t.cols[lo:hi], t.vals[lo:hi]
		k := 0
		for ; k+4 <= len(src); k += 4 {
			s0, s1, s2, s3 := src[k], src[k+1], src[k+2], src[k+3]
			var a0, a1, a2, a3 complex128
			for e, j := range cols {
				r := vals[e]
				a0 += r * s0[j]
				a1 += r * s1[j]
				a2 += r * s2[j]
				a3 += r * s3[j]
			}
			dst[k][i], dst[k+1][i], dst[k+2][i], dst[k+3][i] = a0, a1, a2, a3
		}
		for ; k < len(src); k++ {
			var a complex128
			s := src[k]
			for e, j := range cols {
				a += vals[e] * s[j]
			}
			dst[k][i] = a
		}
	})
}

// Trace returns the (real) trace of the TCC, which equals the total captured
// source energy and bounds the sum of all eigenvalues.
func (t *TCC) Trace() float64 {
	var tr float64
	for i := 0; i < t.Dim; i++ {
		tr += real(t.Data[i*t.Dim+i])
	}
	return tr
}
