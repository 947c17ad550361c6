package stats

import (
	"math"

	"selest/internal/fsort"
)

// KolmogorovSmirnov returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F̂₁(x) − F̂₂(x)|: the largest gap between the empirical CDFs
// of the two samples. D ∈ [0, 1]; 0 means identical empirical
// distributions. Empty input yields NaN.
//
// The online-estimation layer uses D to detect distribution drift between
// the sample an estimator was fitted on and the current reservoir.
func KolmogorovSmirnov(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	fsort.Float64s(a)
	fsort.Float64s(b)

	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		// Advance past ties together so the CDFs are compared just after
		// each distinct value.
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= v {
			i++
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		if gap := math.Abs(float64(i)/na - float64(j)/nb); gap > d {
			d = gap
		}
	}
	return d
}

// KSCriticalValue returns the approximate two-sample KS critical value at
// significance level alpha for sample sizes n and m:
//
//	c(α)·√((n+m)/(n·m)),  c(α) = √(−ln(α/2)/2)
//
// D above this value rejects "same distribution" at level alpha.
func KSCriticalValue(alpha float64, n, m int) float64 {
	if n <= 0 || m <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}
