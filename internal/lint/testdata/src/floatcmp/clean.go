package floatcmp

import "math"

const eps = 1e-12

const zeroThreshold = 0.0

// Constant-zero sentinels are the repo idiom and stay exempt, including
// through a named constant.
func sentinels(x float64, data []float64) int {
	n := 0
	if x == 0 {
		n++
	}
	for _, v := range data {
		if v != 0 {
			n++
		}
		if v == zeroThreshold {
			n--
		}
	}
	return n
}

// An explicit tolerance is the sanctioned comparison for computed values.
func tolerance(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < eps
}

// Bit comparison is uint64 equality, not float equality.
func bits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func ints(a, b int) bool { return a == b }
