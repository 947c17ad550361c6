package xmath

// Func is a real-valued function of one real variable.
type Func func(float64) float64

// Simpson approximates ∫_a^b f(x) dx with the composite Simpson rule using
// n subintervals. n is rounded up to the next even value and clamped to at
// least 2.
func Simpson(f Func, a, b float64, n int) float64 {
	if a == b {
		return 0
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// IntegrateSamples approximates the integral of a function tabulated at
// equally spaced points xs[0], xs[0]+dx, ... with the trapezoid rule.
func IntegrateSamples(ys []float64, dx float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	sum := 0.5 * (ys[0] + ys[len(ys)-1])
	for _, y := range ys[1 : len(ys)-1] {
		sum += y
	}
	return sum * dx
}
