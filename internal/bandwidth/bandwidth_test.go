package bandwidth

import (
	"math"
	"sort"
	"testing"

	"selest/internal/dist"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xmath"
	"selest/internal/xrand"
)

func normalSamples(t testing.TB, n int, mu, sigma float64, seed uint64) []float64 {
	t.Helper()
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormalMeanStd(mu, sigma)
	}
	return xs
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// fitContext builds the fit context the context-taking rules read.
func fitContext(t testing.TB, xs []float64) *kde.FitContext {
	t.Helper()
	ctx, err := kde.NewFitContext(xs)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestOptimalBinWidthMinimisesAMISE(t *testing.T) {
	// The closed form must sit at the minimum of the AMISE curve.
	n, r1 := 2000, 0.05
	hOpt := OptimalBinWidth(n, r1)
	f := func(h float64) float64 { return AMISEHistogram(h, n, r1) }
	hGrid, _ := xmath.LogGridMin(f, hOpt/50, hOpt*50, 4001)
	if math.Abs(math.Log(hGrid/hOpt)) > 0.01 {
		t.Fatalf("closed-form h_EW %v vs grid minimum %v", hOpt, hGrid)
	}
}

func TestOptimalBandwidthMinimisesAMISE(t *testing.T) {
	n, r2 := 2000, 0.01
	k := kernel.Epanechnikov{}
	hOpt := OptimalBandwidth(n, k, r2)
	f := func(h float64) float64 { return AMISEKernel(h, n, k, r2) }
	hGrid, _ := xmath.LogGridMin(f, hOpt/50, hOpt*50, 4001)
	if math.Abs(math.Log(hGrid/hOpt)) > 0.01 {
		t.Fatalf("closed-form h_K %v vs grid minimum %v", hOpt, hGrid)
	}
}

func TestOptimalFormulasDegenerate(t *testing.T) {
	if !math.IsInf(OptimalBinWidth(100, 0), 1) {
		t.Fatal("zero roughness should give infinite width")
	}
	if !math.IsNaN(OptimalBinWidth(0, 1)) {
		t.Fatal("n=0 should give NaN")
	}
	if !math.IsInf(OptimalBandwidth(100, kernel.Epanechnikov{}, 0), 1) {
		t.Fatal("zero roughness should give infinite bandwidth")
	}
}

func TestNormalScaleBandwidthPaperConstant(t *testing.T) {
	// For the Epanechnikov kernel the paper states h ≈ 2.345·s·n^(−1/5).
	// Build a sample with known scale ~1 and check the constant emerges.
	samples := normalSamples(t, 2000, 0, 1, 1)
	h, err := NormalScaleBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.345 * math.Pow(2000, -0.2)
	if math.Abs(h-want)/want > 0.05 {
		t.Fatalf("normal scale bandwidth = %v, want ≈ %v (2.345·s·n^{-1/5})", h, want)
	}
}

func TestNormalScaleBinWidthPaperConstant(t *testing.T) {
	// h ≈ (24√π)^(1/3)·s·n^(−1/3) ≈ 3.4908·s·n^(−1/3).
	samples := normalSamples(t, 2000, 0, 1, 2)
	h, err := NormalScaleBinWidthSorted(sortedCopy(samples))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cbrt(24*math.SqrtPi) * math.Pow(2000, -1.0/3.0)
	if math.Abs(h-want)/want > 0.05 {
		t.Fatalf("normal scale bin width = %v, want ≈ %v", h, want)
	}
}

func TestNormalScaleRulesNearOptimalOnNormalData(t *testing.T) {
	// On truly normal data the normal scale rule must land close to the
	// oracle optimum computed from the analytic functionals.
	sigma := 3.0
	samples := normalSamples(t, 2000, 0, sigma, 3)
	nrm := dist.NewNormal(0, sigma)

	hNS, err := NormalScaleBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	hOpt := OptimalBandwidth(2000, kernel.Epanechnikov{}, dist.RoughnessSecond(nrm))
	if math.Abs(math.Log(hNS/hOpt)) > 0.15 {
		t.Fatalf("normal scale h %v far from analytic optimum %v", hNS, hOpt)
	}

	wNS, err := NormalScaleBinWidthSorted(sortedCopy(samples))
	if err != nil {
		t.Fatal(err)
	}
	wOpt := OptimalBinWidth(2000, dist.RoughnessFirst(nrm))
	if math.Abs(math.Log(wNS/wOpt)) > 0.15 {
		t.Fatalf("normal scale width %v far from analytic optimum %v", wNS, wOpt)
	}
}

func TestNormalScaleErrors(t *testing.T) {
	if _, err := NormalScaleBinWidthSorted(nil); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := NormalScaleBandwidthSorted([]float64{5, 5, 5}, kernel.Epanechnikov{}); err == nil {
		t.Fatal("degenerate sample should error")
	}
}

func TestBinsForWidth(t *testing.T) {
	if got := BinsForWidth(10, 0, 100, 0); got != 10 {
		t.Fatalf("BinsForWidth = %d, want 10", got)
	}
	if got := BinsForWidth(3, 0, 10, 0); got != 4 { // ceil(10/3)
		t.Fatalf("BinsForWidth = %d, want 4", got)
	}
	if got := BinsForWidth(10, 0, 100, 5); got != 5 {
		t.Fatalf("cap: BinsForWidth = %d, want 5", got)
	}
	if got := BinsForWidth(math.Inf(1), 0, 100, 0); got != 1 {
		t.Fatalf("infinite width should give 1 bin, got %d", got)
	}
	if got := BinsForWidth(1, 5, 5, 0); got != 1 {
		t.Fatalf("empty domain should give 1 bin, got %d", got)
	}
}

func TestNormalScaleBins(t *testing.T) {
	samples := normalSamples(t, 2000, 50, 10, 4)
	w, err := NormalScaleBinWidthSorted(sortedCopy(samples))
	if err != nil {
		t.Fatal(err)
	}
	k := BinsForWidth(w, 0, 100, 0)
	// width ≈ 3.49·10·2000^{-1/3} ≈ 2.77 → ~36 bins over a 100-wide domain.
	if k < 20 || k > 60 {
		t.Fatalf("normal scale bins = %d, expected a few dozen", k)
	}
}

func TestDPIBandwidthOnNormalData(t *testing.T) {
	// On normal data DPI must stay in the same ballpark as the normal
	// scale rule (both approximate the same optimum).
	samples := normalSamples(t, 2000, 500, 80, 5)
	hNS, err := NormalScaleBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	hDPI, err := DPIBandwidthContext(fitContext(t, samples), kernel.Epanechnikov{}, 2, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := hDPI / hNS; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("DPI h %v wildly different from NS h %v", hDPI, hNS)
	}
}

func TestDPIBandwidthAdaptsToBimodal(t *testing.T) {
	// On a well-separated bimodal density the normal scale rule
	// oversmooths (it sees one wide blob); DPI must choose a smaller h.
	r := xrand.New(6)
	samples := make([]float64, 2000)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = r.NormalMeanStd(200, 20)
		} else {
			samples[i] = r.NormalMeanStd(800, 20)
		}
	}
	hNS, err := NormalScaleBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	hDPI, err := DPIBandwidthContext(fitContext(t, samples), kernel.Epanechnikov{}, 2, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if hDPI >= hNS {
		t.Fatalf("DPI h %v should undercut oversmoothing NS h %v on bimodal data", hDPI, hNS)
	}
}

func TestDPIZeroStepsEqualsNormalScale(t *testing.T) {
	samples := normalSamples(t, 500, 0, 1, 7)
	hDPI, err := DPIBandwidthContext(fitContext(t, samples), kernel.Epanechnikov{}, 0, -5, 5)
	if err != nil {
		t.Fatal(err)
	}
	hNS, err := NormalScaleBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	if hDPI != hNS {
		t.Fatalf("0-step DPI %v != NS %v (must be bit-identical)", hDPI, hNS)
	}
}

func TestDPIBinWidth(t *testing.T) {
	samples := normalSamples(t, 2000, 500, 80, 8)
	w, err := DPIBinWidthContext(fitContext(t, samples), 2, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wNS, _ := NormalScaleBinWidthSorted(sortedCopy(samples))
	if ratio := w / wNS; ratio < 0.3 || ratio > 3 {
		t.Fatalf("DPI width %v wildly different from NS width %v", w, wNS)
	}
}

func TestDPIDomainValidation(t *testing.T) {
	samples := normalSamples(t, 100, 0, 1, 9)
	if _, err := DPIBandwidthContext(fitContext(t, samples), kernel.Epanechnikov{}, 2, 5, 5); err == nil {
		t.Fatal("empty domain should error")
	}
	if _, err := DPIBinWidthContext(fitContext(t, samples), 2, 5, -5); err == nil {
		t.Fatal("inverted domain should error")
	}
}

func TestLSCVSelectsReasonableBandwidth(t *testing.T) {
	samples := normalSamples(t, 400, 0, 1, 10)
	h, err := LSCVBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{}, 0.02, 5, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The AMISE optimum for N(0,1), n=400, Epanechnikov:
	hOpt := OptimalBandwidth(400, kernel.Epanechnikov{}, dist.RoughnessSecond(dist.NewNormal(0, 1)))
	if math.Abs(math.Log(h/hOpt)) > 1.0 {
		t.Fatalf("LSCV h %v more than e× away from optimum %v", h, hOpt)
	}
	// Must not sit at a grid edge (that would mean the grid clipped it).
	if h <= 0.021 || h >= 4.9 {
		t.Fatalf("LSCV h %v at grid edge", h)
	}
}

func TestLSCVValidation(t *testing.T) {
	if _, err := LSCVBandwidthSorted([]float64{1}, kernel.Epanechnikov{}, 0.1, 1, 8, 0); err == nil {
		t.Fatal("single sample should error")
	}
	if _, err := LSCVBandwidthSorted([]float64{1, 2}, kernel.Epanechnikov{}, 1, 0.5, 8, 0); err == nil {
		t.Fatal("inverted grid should error")
	}
}

func TestEpanechnikovSelfConvolutionClosedForm(t *testing.T) {
	k := kernel.Epanechnikov{}
	for _, d := range []float64{0, 0.3, 1, 1.7, 1.99, 2, 3} {
		want := xmath.Simpson(func(t float64) float64 { return k.Eval(t) * k.Eval(t-d) }, d-1, 1, 2000)
		if d >= 2 {
			want = 0
		}
		got := kernelSelfConvolution(k, d)
		if !xmath.AlmostEqual(got, want, 1e-6) {
			t.Fatalf("(K*K)(%v) = %v, numeric %v", d, got, want)
		}
	}
	// Symmetry.
	if kernelSelfConvolution(k, -0.7) != kernelSelfConvolution(k, 0.7) {
		t.Fatal("self-convolution must be even")
	}
}

func TestOracle(t *testing.T) {
	// Known convex loss: minimum at h = 2.
	loss := func(h float64) float64 { return (math.Log(h) - math.Log(2)) * (math.Log(h) - math.Log(2)) }
	h, err := OracleWorkers(loss, 0.01, 100, 2001, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Log(h/2)) > 0.02 {
		t.Fatalf("oracle found %v, want 2", h)
	}
	if _, err := OracleWorkers(loss, -1, 1, 10, 0); err == nil {
		t.Fatal("bad grid should error")
	}
	if _, err := OracleWorkers(func(float64) float64 { return math.NaN() }, 0.1, 1, 10, 0); err == nil {
		t.Fatal("NaN loss should error")
	}
}

func TestOracleBins(t *testing.T) {
	loss := func(k int) float64 { return math.Abs(float64(k) - 37) }
	k, err := OracleBinsWorkers(loss, 1, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The multiplicative scan lands near, not exactly on, 37.
	if k < 25 || k > 50 {
		t.Fatalf("oracle bins = %d, want near 37", k)
	}
	if _, err := OracleBinsWorkers(loss, 0, 10, 0); err == nil {
		t.Fatal("kLo=0 should error")
	}
	if _, err := OracleBinsWorkers(func(int) float64 { return math.Inf(1) }, 1, 10, 0); err == nil {
		t.Fatal("infinite loss should error")
	}
}
