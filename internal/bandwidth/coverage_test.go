package bandwidth

import (
	"errors"
	"math"
	"testing"

	"selest/internal/errs"
	"selest/internal/kernel"
	"selest/internal/xmath"
)

// This file targets branches the main suite misses: degenerate inputs to
// the rules and the non-Epanechnikov self-convolution fallback.

func TestOptimalBandwidthDegenerateN(t *testing.T) {
	if !math.IsNaN(OptimalBandwidth(0, kernel.Epanechnikov{}, 1)) {
		t.Fatal("n=0 should give NaN")
	}
}

func TestNormalScaleRulesEmptyInput(t *testing.T) {
	if _, err := NormalScaleBandwidthSorted(nil, kernel.Epanechnikov{}); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := NormalScaleBinWidthSorted(nil); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := NormalScaleBinWidthSorted([]float64{5, 5, 5}); err == nil {
		t.Fatal("degenerate sample should error")
	}
}

func TestBinsForWidthNaN(t *testing.T) {
	if got := BinsForWidth(math.NaN(), 0, 1, 0); got != 1 {
		t.Fatalf("NaN width should give 1 bin, got %d", got)
	}
	if got := BinsForWidth(-1, 0, 1, 0); got != 1 {
		t.Fatalf("negative width should give 1 bin, got %d", got)
	}
}

func TestDPIDegenerateSamples(t *testing.T) {
	ctx := fitContext(t, []float64{5, 5})
	if _, err := DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 10); err == nil {
		t.Fatal("degenerate sample should error")
	}
	if _, err := DPIBinWidthContext(ctx, 2, 0, 10); err == nil {
		t.Fatal("degenerate sample should error")
	}
}

func TestKernelSelfConvolutionNonEpanechnikov(t *testing.T) {
	// The quadrature fallback must match direct numeric integration for a
	// kernel without a closed form.
	k := kernel.Biweight{}
	for _, d := range []float64{0, 0.5, 1.2, 1.99, 2.5} {
		got := kernelSelfConvolution(k, d)
		want := xmath.Simpson(func(t float64) float64 { return k.Eval(t) * k.Eval(t-d) }, d-1, 1, 2000)
		if d >= 2 {
			want = 0
		}
		if !xmath.AlmostEqual(got, want, 1e-5) {
			t.Fatalf("(K*K)(%v) = %v, numeric %v", d, got, want)
		}
	}
	// Symmetry on the fallback path too.
	if kernelSelfConvolution(k, -0.7) != kernelSelfConvolution(k, 0.7) {
		t.Fatal("fallback self-convolution must be even")
	}
	// At d=0 it equals the kernel's roughness.
	if got := kernelSelfConvolution(k, 0); !xmath.AlmostEqual(got, k.Roughness(), 1e-5) {
		t.Fatalf("(K*K)(0) = %v, want roughness %v", got, k.Roughness())
	}
}

func TestLSCVWithNonEpanechnikovKernel(t *testing.T) {
	samples := normalSamples(t, 200, 0, 1, 40)
	h, err := LSCVBandwidthSorted(sortedCopy(samples), kernel.Triangular{}, 0.05, 3, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0.05 || h >= 3 {
		t.Fatalf("LSCV with triangular kernel picked edge h = %v", h)
	}
}

func TestLSCVRejectsDegenerateGrid(t *testing.T) {
	// The seed silently substituted a 32-point grid for gridN < 2; that
	// hid caller bugs, so it is now a typed option error.
	samples := normalSamples(t, 100, 0, 1, 41)
	for _, gridN := range []int{-5, 0, 1} {
		_, err := LSCVBandwidthSorted(sortedCopy(samples), kernel.Epanechnikov{}, 0.05, 3, gridN, 0)
		if !errors.Is(err, errs.ErrBadOption) {
			t.Fatalf("gridN=%d: want errs.ErrBadOption, got %v", gridN, err)
		}
	}
}

func TestOracleDefaultGrid(t *testing.T) {
	h, err := OracleWorkers(func(h float64) float64 { return (h - 1) * (h - 1) }, 0.1, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.5 || h > 2 {
		t.Fatalf("oracle with default grid found %v", h)
	}
}
