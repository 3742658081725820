package floatcmp

// A stand-alone directive with a reason guards the next line.
func suppressedStandalone(a, b float64) bool {
	//lint:ignore floatcmp both operands are drawn from the same quantized ladder, so equality is exact
	return a == b
}

// A trailing directive with a reason guards its own line.
func suppressedTrailing(a, b float64) bool {
	return a == b //lint:ignore floatcmp ladder values compare bit-identically by construction
}

// A directive without a reason suppresses nothing and is itself reported.
// want+2 "directive needs a reason"
//
//lint:ignore floatcmp
func unsuppressed(a, b float64) bool {
	return a == b // want "float equality"
}
