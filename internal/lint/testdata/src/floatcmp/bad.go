// Package floatcmp is a lint fixture: every comparison in this file must
// fire the floatcmp analyzer.
package floatcmp

// Both operands computed: the canonical violation.
func computed(a, b float64) bool {
	return a == b // want "float equality: == on float64 operands"
}

// A nonzero constant is not a sentinel: 2.5 is exactly representable, but
// the computed left side may be 2.4999999999999996.
func nonzeroConst(x float64) bool {
	return x != 2.5 // want "float equality: != on float64 operands"
}

func complexCmp(a, b complex128) bool {
	return a == b // want "float equality: == on complex operands"
}

// Narrow floats report too, named by their own type.
func narrow(a, b float32) bool {
	return a != b // want "float equality: != on float32 operands"
}
