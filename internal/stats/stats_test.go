package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n−1 denominator: 32/7.
	if got, want := Variance(xs), 32.0/7.0; !xmath.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !xmath.AlmostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single observation should be NaN")
	}
}

func TestVarianceLargeMagnitude(t *testing.T) {
	// Catastrophic-cancellation guard: values near 2^20 with tiny spread.
	base := math.Pow(2, 20)
	xs := []float64{base, base + 1, base + 2}
	if got := Variance(xs); !xmath.AlmostEqual(got, 1, 1e-9) {
		t.Fatalf("Variance at large magnitude = %v, want 1", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for p, want := range cases {
		if got := Quantile(xs, p); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestIQRNormalConsistency(t *testing.T) {
	// For a large N(0,1) sample, IQR/1.348 ≈ 1.
	r := xrand.New(42)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.Normal()
	}
	if got := IQR(xs) / 1.348; math.Abs(got-1) > 0.02 {
		t.Fatalf("IQR/1.348 on N(0,1) = %v, want ~1", got)
	}
}

func TestScalePicksMinimum(t *testing.T) {
	// Outlier-contaminated sample: the stddev is inflated by the tail, the
	// IQR-based scale is what the paper's min rule should select.
	r := xrand.New(7)
	xs := make([]float64, 20000)
	for i := range xs {
		if i%100 == 0 {
			xs[i] = r.NormalMeanStd(0, 500)
		} else {
			xs[i] = r.Normal()
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := ScaleSorted(sorted)
	sd := StdDev(xs)
	if s >= sd {
		t.Fatalf("ScaleSorted = %v should be below inflated stddev %v", s, sd)
	}
}

func TestScaleDegenerate(t *testing.T) {
	if got := ScaleSorted([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("ScaleSorted of constant sample = %v, want 0", got)
	}
	// Half constant: IQR is 0 but stddev is positive -> use stddev.
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 100}
	if got := ScaleSorted(xs); got <= 0 {
		t.Fatalf("ScaleSorted with zero IQR = %v, want stddev fallback > 0", got)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := map[float64]float64{
		0.5: 0,
		1:   0.25,
		2:   0.75,
		2.5: 0.75,
		3:   1,
		9:   1,
	}
	for x, want := range cases {
		if got := e.At(x); got != want {
			t.Fatalf("ECDF(%v) = %v, want %v", x, got, want)
		}
	}
	if e.N() != 4 {
		t.Fatalf("N = %d, want 4", e.N())
	}
	empty := NewECDF(nil)
	if empty.At(0) != 0 {
		t.Fatal("empty ECDF should be 0 everywhere")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 2, 3, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 4 || s.DistinctValues != 4 {
		t.Fatalf("Summary basics wrong: %+v", s)
	}
	if s.Q50 != 2 {
		t.Fatalf("median = %v, want 2", s.Q50)
	}
	if !xmath.AlmostEqual(s.IQR, s.Q75-s.Q25, 1e-12) {
		t.Fatal("IQR inconsistent with quartiles")
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("empty Summary wrong: %+v", empty)
	}
}

// Property: quantile is monotone in p and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	r := xrand.New(11)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	prop := func(raw uint16) bool {
		p1 := float64(raw%1000) / 1000
		p2 := p1 + 0.001
		q1 := QuantileSorted(sorted, p1)
		q2 := QuantileSorted(sorted, p2)
		return q1 <= q2 && q1 >= sorted[0] && q2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ECDF is monotone.
func TestQuickECDFMonotone(t *testing.T) {
	r := xrand.New(13)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Normal()
	}
	e := NewECDF(xs)
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRadixSortedStatsBitIdentical pins the statistics that now sort
// with internal/fsort against the comparison sort they used before: the
// order is the same (NaNs first), so quartiles, the scale estimate and
// the KS statistic agree bit for bit. Summarize's scale estimate keeps
// the standard deviation summed in the caller's order, and ScaleSorted
// sums it in sorted order.
func TestRadixSortedStatsBitIdentical(t *testing.T) {
	r := xrand.New(17)
	for _, n := range []int{10, 300, 5000} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(r.Exponential(0.01))
			ys[i] = r.Normal()*40 + 100
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s = %v, comparison-sort reference %v", n, what, got, want)
			}
		}
		same("Quantile", Quantile(xs, 0.37), QuantileSorted(ref, 0.37))
		iqr := QuantileSorted(ref, 0.75) - QuantileSorted(ref, 0.25)
		same("IQR", IQR(xs), iqr)
		same("iqrSorted", iqrSorted(ref), iqr)
		same("ScaleSorted", ScaleSorted(ref), combineScale(StdDev(ref), iqr/iqrToSigma))
		same("Summarize.ScaleEst", Summarize(xs).ScaleEst, combineScale(StdDev(xs), iqr/iqrToSigma))

		// KolmogorovSmirnov against a direct sup-gap walk over
		// comparison-sorted copies.
		refY := append([]float64(nil), ys...)
		sort.Float64s(refY)
		var d float64
		for _, v := range append(append([]float64(nil), ref...), refY...) {
			fx := float64(sort.Search(len(ref), func(i int) bool { return ref[i] > v })) / float64(n)
			fy := float64(sort.Search(len(refY), func(i int) bool { return refY[i] > v })) / float64(n)
			d = math.Max(d, math.Abs(fx-fy))
		}
		same("KolmogorovSmirnov", KolmogorovSmirnov(xs, ys), d)
	}
}
