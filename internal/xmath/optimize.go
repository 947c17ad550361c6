package xmath

import "math"

// GridMin evaluates f at n equally spaced points on [a,b] (inclusive) and
// returns the abscissa and value of the smallest evaluation. n is clamped to
// at least 2. It makes no unimodality assumption and is used to scan noisy
// empirical error curves.
func GridMin(f Func, a, b float64, n int) (x, fx float64) {
	if n < 2 {
		n = 2
	}
	if b < a {
		a, b = b, a
	}
	step := (b - a) / float64(n-1)
	x, fx = a, f(a)
	for i := 1; i < n; i++ {
		xi := a + float64(i)*step
		if fi := f(xi); fi < fx {
			x, fx = xi, fi
		}
	}
	return x, fx
}

// LogGridMin scans f on a logarithmically spaced grid over [a,b] (both must
// be positive) and returns the abscissa and value of the smallest
// evaluation. It is the natural scan for scale parameters such as
// bandwidths, whose plausible range spans orders of magnitude.
func LogGridMin(f Func, a, b float64, n int) (x, fx float64) {
	if a <= 0 || b <= 0 {
		return GridMin(f, a, b, n)
	}
	if n < 2 {
		n = 2
	}
	if b < a {
		a, b = b, a
	}
	la, lb := math.Log(a), math.Log(b)
	step := (lb - la) / float64(n-1)
	x, fx = a, f(a)
	for i := 1; i < n; i++ {
		xi := math.Exp(la + float64(i)*step)
		if fi := f(xi); fi < fx {
			x, fx = xi, fi
		}
	}
	return x, fx
}
