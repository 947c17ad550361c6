package xmath

import "math"

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Linspace returns n equally spaced values from a to b inclusive.
// n < 2 yields []float64{a}.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// AlmostEqual reports whether a and b agree to within tol absolutely or
// relatively (whichever is looser). NaNs are never equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
