// Package stats provides the descriptive statistics the estimators need:
// moments, quantiles, the interquartile range, the robust scale estimate
// s = min(stddev, IQR/1.348) that the paper's normal scale rules plug into
// their smoothing-parameter formulas, and the empirical CDF.
package stats

import (
	"math"
	"sort"

	"selest/internal/fsort"
)

// iqrToSigma converts an interquartile range to a normal-equivalent
// standard deviation: for N(0,σ²), IQR = 1.348·σ (paper §4.1/§4.2).
const iqrToSigma = 1.348

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n−1 denominator), or NaN
// for fewer than two observations. A two-pass algorithm avoids catastrophic
// cancellation on the large-magnitude integer domains the paper uses.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile of xs using linear interpolation between
// order statistics (Hyndman–Fan type 7, the R and NumPy default). The input
// need not be sorted; a sorted copy is made. Empty input yields NaN.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	fsort.Float64s(sorted)
	return QuantileSorted(sorted, p)
}

// QuantileSorted is Quantile for already-sorted input, avoiding the copy.
func QuantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// IQR returns the interquartile range Q(0.75) − Q(0.25).
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	fsort.Float64s(sorted)
	return iqrSorted(sorted)
}

// iqrSorted is IQR for already-sorted input, avoiding the copy (NaN for
// empty input, through QuantileSorted).
func iqrSorted(sorted []float64) float64 {
	return QuantileSorted(sorted, 0.75) - QuantileSorted(sorted, 0.25)
}

// ScaleSorted returns the paper's robust scale estimate for the normal
// scale rules over a sample sorted ascending: min(sample standard
// deviation, IQR/1.348). Using the minimum hedges against the
// oversmoothing that a heavy-tailed or multi-modal sample inflicts on the
// raw standard deviation (paper §4.1). The quartiles come straight from
// the order statistics with no sorting copy, and the standard deviation
// is accumulated in sorted order.
//
// If one of the two estimates is zero or NaN (constant or near-constant
// samples), the other is used; if both degenerate, ScaleSorted returns 0
// and the caller must treat the sample as degenerate.
func ScaleSorted(sorted []float64) float64 {
	return combineScale(StdDev(sorted), iqrSorted(sorted)/iqrToSigma)
}

// combineScale applies the paper's min(sd, IQR/1.348) rule with the
// degenerate-estimate fallbacks documented on ScaleSorted.
func combineScale(sd, iqrS float64) float64 {
	sdOK := !math.IsNaN(sd) && sd > 0
	iqrOK := !math.IsNaN(iqrS) && iqrS > 0
	switch {
	case sdOK && iqrOK:
		return math.Min(sd, iqrS)
	case sdOK:
		return sd
	case iqrOK:
		return iqrS
	default:
		return 0
	}
}

// ECDF is the empirical cumulative distribution function of a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	fsort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns F̂(x) = (#samples <= x) / n. An empty sample yields 0.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Q25, Q50, Q75  float64
	IQR, ScaleEst  float64
	DistinctValues int
}

// Summarize computes a Summary in one pass over a sorted copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{N: 0, Mean: math.NaN(), Std: math.NaN(), Min: math.NaN(), Max: math.NaN(), Q25: math.NaN(), Q50: math.NaN(), Q75: math.NaN(), IQR: math.NaN()}
	}
	sorted := append([]float64(nil), xs...)
	fsort.Float64s(sorted)
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	q25 := QuantileSorted(sorted, 0.25)
	q75 := QuantileSorted(sorted, 0.75)
	std, iqr := StdDev(xs), q75-q25
	return Summary{
		N:              len(xs),
		Mean:           Mean(xs),
		Std:            std,
		Min:            sorted[0],
		Max:            sorted[len(sorted)-1],
		Q25:            q25,
		Q50:            QuantileSorted(sorted, 0.5),
		Q75:            q75,
		IQR:            iqr,
		ScaleEst:       combineScale(std, iqr/iqrToSigma),
		DistinctValues: distinct,
	}
}
