// Package grid provides dense 2-D real and complex matrices together with
// the resampling operators used throughout the multi-level ILT flow:
// average pooling (both the stride-s downsampling flavour and the stride-1
// smoothing flavour of Algorithm 1), nearest-neighbour upsampling, and the
// exact adjoints of all three, which the optimizer needs to backpropagate
// the loss through resolution changes.
//
// Matrices are stored row-major: element (x, y) lives at Data[y*W+x].
package grid

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of float64 values.
type Mat struct {
	W, H int
	Data []float64
}

// NewMat returns a zero-filled w×h matrix.
// It panics if either dimension is not positive.
func NewMat(w, h int) *Mat {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid matrix size %dx%d", w, h))
	}
	return &Mat{W: w, H: h, Data: make([]float64, w*h)}
}

// FromSlice wraps data (row-major, length w*h) in a Mat without copying.
func FromSlice(w, h int, data []float64) *Mat {
	if len(data) != w*h {
		panic(fmt.Sprintf("grid: FromSlice length %d != %d*%d", len(data), w, h))
	}
	return &Mat{W: w, H: h, Data: data}
}

// At returns the element at (x, y).
func (m *Mat) At(x, y int) float64 { return m.Data[y*m.W+x] }

// Set stores v at (x, y).
func (m *Mat) Set(x, y int, v float64) { m.Data[y*m.W+x] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.W, m.H)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. The shapes must match.
func (m *Mat) CopyFrom(src *Mat) {
	m.mustMatch(src)
	copy(m.Data, src.Data)
}

// Fill sets every element to v.
func (m *Mat) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *Mat) mustMatch(o *Mat) {
	if m.W != o.W || m.H != o.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", m.W, m.H, o.W, o.H))
	}
}

// Add sets m += o element-wise.
func (m *Mat) Add(o *Mat) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub sets m -= o element-wise.
func (m *Mat) Sub(o *Mat) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// MulElem sets m *= o element-wise.
func (m *Mat) MulElem(o *Mat) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// Scale multiplies every element by a.
func (m *Mat) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled sets m += a*o element-wise.
func (m *Mat) AddScaled(a float64, o *Mat) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// Dot returns the inner product Σ m[i]*o[i].
func (m *Mat) Dot(o *Mat) float64 {
	m.mustMatch(o)
	var s float64
	for i, v := range o.Data {
		s += m.Data[i] * v
	}
	return s
}

// Sum returns the sum of all elements.
func (m *Mat) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// SumSq returns Σ m[i]².
func (m *Mat) SumSq() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Mat) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// MinMax returns the smallest and largest element values.
func (m *Mat) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range m.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Apply replaces every element v with f(v).
func (m *Mat) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Threshold returns a new matrix with 1 where m ≥ t and 0 elsewhere.
func (m *Mat) Threshold(t float64) *Mat {
	out := NewMat(m.W, m.H)
	for i, v := range m.Data {
		if v >= t {
			out.Data[i] = 1
		}
	}
	return out
}

// Equal reports whether m and o have identical shape and elements within tol.
func (m *Mat) Equal(o *Mat, tol float64) bool {
	if m.W != o.W || m.H != o.H {
		return false
	}
	for i, v := range o.Data {
		if math.Abs(m.Data[i]-v) > tol {
			return false
		}
	}
	return true
}
