package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, w, h int) *Mat {
	m := NewMat(w, h)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatPanicsOnBadSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 3}, {3, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMat(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMat(dims[0], dims[1])
		}()
	}
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(3, 3, make([]float64, 8))
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMat(5, 3)
	m.Set(4, 2, 7.5)
	if got := m.At(4, 2); got != 7.5 {
		t.Fatalf("At(4,2) = %v, want 7.5", got)
	}
	if got := m.Data[2*5+4]; got != 7.5 {
		t.Fatalf("row-major layout broken: Data[14] = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMat(2, 2)
	m.Fill(1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	want := []float64{11, 22, 33, 44}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add: Data[%d] = %v, want %v", i, a.Data[i], v)
		}
	}
	a.Sub(b)
	for i, v := range []float64{1, 2, 3, 4} {
		if a.Data[i] != v {
			t.Fatalf("Sub: Data[%d] = %v, want %v", i, a.Data[i], v)
		}
	}
	a.MulElem(b)
	for i, v := range []float64{10, 40, 90, 160} {
		if a.Data[i] != v {
			t.Fatalf("MulElem: Data[%d] = %v, want %v", i, a.Data[i], v)
		}
	}
	a.Scale(0.5)
	if a.Data[3] != 80 {
		t.Fatalf("Scale: got %v, want 80", a.Data[3])
	}
	a.AddScaled(2, b)
	if a.Data[0] != 5+20 {
		t.Fatalf("AddScaled: got %v, want 25", a.Data[0])
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewMat(2, 2)
	b := NewMat(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	a.Add(b)
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{-3, 1, 2, 4})
	if got := m.Sum(); got != 4 {
		t.Errorf("Sum = %v, want 4", got)
	}
	if got := m.SumSq(); got != 9+1+4+16 {
		t.Errorf("SumSq = %v, want 30", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
	min, max := m.MinMax()
	if min != -3 || max != 4 {
		t.Errorf("MinMax = %v,%v, want -3,4", min, max)
	}
	o := FromSlice(2, 2, []float64{1, 1, 1, 1})
	if got := m.Dot(o); got != 4 {
		t.Errorf("Dot = %v, want 4", got)
	}
}

func TestThresholdAndCount(t *testing.T) {
	m := FromSlice(3, 1, []float64{0.2, 0.5, 0.9})
	b := m.Threshold(0.5)
	want := []float64{0, 1, 1}
	for i, v := range want {
		if b.Data[i] != v {
			t.Fatalf("Threshold: Data[%d] = %v, want %v", i, b.Data[i], v)
		}
	}
	if got := b.Sum(); got != 2 {
		t.Fatalf("Threshold set %v elements, want 2", got)
	}
}

func TestApply(t *testing.T) {
	m := FromSlice(2, 1, []float64{4, 9})
	m.Apply(math.Sqrt)
	if m.Data[0] != 2 || m.Data[1] != 3 {
		t.Fatalf("Apply(sqrt) = %v", m.Data)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 1, []float64{1.0005, 2})
	if !a.Equal(b, 1e-3) {
		t.Error("Equal within tolerance reported false")
	}
	if a.Equal(b, 1e-6) {
		t.Error("Equal outside tolerance reported true")
	}
	c := NewMat(1, 2)
	if a.Equal(c, 1) {
		t.Error("Equal with different shapes reported true")
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randMat(rng, 7, 5), randMat(rng, 7, 5)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCMatBasics(t *testing.T) {
	m := NewCMat(3, 2)
	m.Set(2, 1, complex(1, -2))
	if m.At(2, 1) != complex(1, -2) {
		t.Fatal("CMat At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Fatal("CMat Clone shares storage")
	}
	m.Conj()
	if m.At(2, 1) != complex(1, 2) {
		t.Fatal("Conj broken")
	}
	r := m.Real()
	if r.At(2, 1) != 1 {
		t.Fatal("Real broken")
	}
	sq := m.AbsSq()
	if sq.At(2, 1) != 5 {
		t.Fatalf("AbsSq = %v, want 5", sq.At(2, 1))
	}
	acc := NewMat(3, 2)
	m.AddAbsSqScaled(acc, 2)
	if acc.At(2, 1) != 10 {
		t.Fatalf("AddAbsSqScaled = %v, want 10", acc.At(2, 1))
	}
}

func TestComplexFromRealSetReal(t *testing.T) {
	r := FromSlice(2, 1, []float64{3, -1})
	c := ComplexFromReal(r)
	if c.At(0, 0) != 3 || c.At(1, 0) != -1 {
		t.Fatal("ComplexFromReal broken")
	}
	c.Set(0, 0, complex(0, 9))
	c.SetReal(r)
	if c.At(0, 0) != 3 {
		t.Fatal("SetReal did not clear imaginary part")
	}
}

func TestCMatMulElemScale(t *testing.T) {
	a := NewCMat(2, 1)
	a.Set(0, 0, complex(1, 1))
	a.Set(1, 0, complex(2, 0))
	b := NewCMat(2, 1)
	b.Set(0, 0, complex(0, 1))
	b.Set(1, 0, complex(3, 0))
	a.MulElem(b)
	if a.At(0, 0) != complex(-1, 1) || a.At(1, 0) != complex(6, 0) {
		t.Fatalf("MulElem = %v %v", a.At(0, 0), a.At(1, 0))
	}
	a.Scale(complex(2, 0))
	if a.At(1, 0) != complex(12, 0) {
		t.Fatal("Scale broken")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewCMat(2, 1)
	b := NewCMat(2, 1)
	b.Set(1, 0, complex(3, 4))
	if got := a.MaxAbsDiff(b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %v, want 5", got)
	}
}
