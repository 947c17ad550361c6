// Package bandwidth implements the smoothing-parameter selection rules of
// paper §4: the asymptotically optimal bin width and kernel bandwidth, the
// normal scale rules that approximate them from the sample alone, the
// iterative direct plug-in (DPI) rule, least-squares cross-validation as an
// extension, and the oracle grid search used for the "h-opt" reference
// columns of figures 9 and 11.
package bandwidth

import (
	"fmt"
	"math"
	"time"

	"selest/internal/faultinject"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/stats"
	"selest/internal/telemetry"
	"selest/internal/xmath"
)

// OptimalBinWidth returns the asymptotically MISE-optimal equi-width bin
// width h_EW = (6 / (n · ∫f'²))^(1/3) (paper eq. 7). roughnessFirst is
// ∫f'(x)²dx of the true density; it must be positive (a zero functional —
// e.g. the uniform density — has no finite optimal width and yields +Inf).
func OptimalBinWidth(n int, roughnessFirst float64) float64 {
	if n <= 0 {
		return math.NaN()
	}
	if roughnessFirst <= 0 {
		return math.Inf(1)
	}
	return math.Cbrt(6 / (float64(n) * roughnessFirst))
}

// OptimalBandwidth returns the asymptotically MISE-optimal kernel
// bandwidth h_K = (∫K² / (n·k₂²·∫f”²))^(1/5) (paper §4.2).
func OptimalBandwidth(n int, k kernel.Kernel, roughnessSecond float64) float64 {
	if n <= 0 {
		return math.NaN()
	}
	if roughnessSecond <= 0 {
		return math.Inf(1)
	}
	k2 := k.SecondMoment()
	return math.Pow(k.Roughness()/(float64(n)*k2*k2*roughnessSecond), 0.2)
}

// AMISEHistogram evaluates the histogram AMISE(h) = 1/(nh) + h²/12·∫f'²
// (paper §4.1) so experiments can plot the error curve whose minimum
// OptimalBinWidth identifies.
func AMISEHistogram(h float64, n int, roughnessFirst float64) float64 {
	return 1/(float64(n)*h) + h*h/12*roughnessFirst
}

// AMISEKernel evaluates the kernel AMISE(h) = ¼h⁴k₂²∫f”² + ∫K²/(nh)
// (paper eq. 9).
func AMISEKernel(h float64, n int, k kernel.Kernel, roughnessSecond float64) float64 {
	k2 := k.SecondMoment()
	bias2 := 0.25 * h * h * h * h * k2 * k2 * roughnessSecond
	variance := k.Roughness() / (float64(n) * h)
	return bias2 + variance
}

// NormalScaleBinWidthSorted returns the paper's normal scale rule for
// the equi-width bin width (eq. 8): h ≈ (24√π)^(1/3) · s · n^(−1/3), where
// the scale s = min(stddev, IQR/1.348) comes from stats.ScaleSorted over
// the sample sorted ascending — its quartiles are order statistics, read
// with no sorting copy. Fit-path callers that hold a kde.FitContext pass
// its Sorted() slice.
func NormalScaleBinWidthSorted(sorted []float64) (float64, error) {
	defer ruleNanosNSBinWidth.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.normal-scale-binwidth"); err != nil {
		return 0, err
	}
	if len(sorted) == 0 {
		return 0, fmt.Errorf("bandwidth: empty sample set")
	}
	s := stats.ScaleSorted(sorted)
	if s <= 0 {
		return 0, fmt.Errorf("bandwidth: degenerate sample (zero scale)")
	}
	return math.Cbrt(24*math.SqrtPi) * s * math.Pow(float64(len(sorted)), -1.0/3.0), nil
}

// NormalScaleBandwidthSorted returns the paper's normal scale rule for the
// kernel bandwidth over the sample sorted ascending: plugging the
// Gaussian roughness ∫f”² = 3/(8√π s⁵) into the optimal-h formula gives
//
//	h ≈ (8√π·∫K² / (3·k₂²))^(1/5) · s · n^(−1/5),
//
// which for the Epanechnikov kernel is the paper's h ≈ 2.345·s·n^(−1/5).
// The scale s is read as in NormalScaleBinWidthSorted.
func NormalScaleBandwidthSorted(sorted []float64, k kernel.Kernel) (float64, error) {
	defer ruleNanosNormalScale.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.normal-scale"); err != nil {
		return 0, err
	}
	if len(sorted) == 0 {
		return 0, fmt.Errorf("bandwidth: empty sample set")
	}
	if telemetry.Enabled() {
		fitKindClosedForm.Inc()
	}
	s := stats.ScaleSorted(sorted)
	if s <= 0 {
		return 0, fmt.Errorf("bandwidth: degenerate sample (zero scale)")
	}
	k2 := k.SecondMoment()
	c := math.Pow(8*math.SqrtPi*k.Roughness()/(3*k2*k2), 0.2)
	return c * s * math.Pow(float64(len(sorted)), -0.2), nil
}

// BinsForWidth converts a bin width into a bin count over [lo, hi],
// clamped to at least 1 bin and at most maxBins (0 means no cap).
func BinsForWidth(h, lo, hi float64, maxBins int) int {
	if !(hi > lo) || h <= 0 || math.IsInf(h, 1) || math.IsNaN(h) {
		return 1
	}
	k := int(math.Ceil((hi - lo) / h))
	if k < 1 {
		k = 1
	}
	if maxBins > 0 && k > maxBins {
		k = maxBins
	}
	return k
}

// DPIBandwidthContext implements the paper's direct plug-in rule (§4.3)
// over a fit context: starting from the normal scale bandwidth, each
// iteration builds a pilot kernel density estimate with the current
// bandwidth, estimates the functional ∫f”² from it numerically, and plugs
// that into the optimal-bandwidth formula. Two or three steps suffice
// (the paper's observation; the ablation bench verifies it).
//
// The pilot estimates use reflection at [lo, hi] so the boundary loss does
// not bias the functional. The context pays the sample sort and the
// prefix-moment index once, and every pilot density of every iteration
// reuses them; callers fitting a final estimator afterwards should fit it
// from the same context.
func DPIBandwidthContext(ctx *kde.FitContext, k kernel.Kernel, steps int, lo, hi float64) (float64, error) {
	defer ruleNanosDPI.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.dpi"); err != nil {
		return 0, err
	}
	if telemetry.Enabled() {
		fitKindSearched.Inc()
	}
	h, err := NormalScaleBandwidthSorted(ctx.Sorted(), k)
	if err != nil {
		return 0, err
	}
	if steps <= 0 {
		return h, nil
	}
	if !(hi > lo) {
		return 0, fmt.Errorf("bandwidth: DPI needs a proper domain, got [%v, %v]", lo, hi)
	}
	n := ctx.SampleSize()
	for step := 0; step < steps; step++ {
		// Functional estimation benefits from a pilot bandwidth somewhat
		// larger than the final one (derivatives amplify noise); the
		// classical inflation factor for ψ₄ estimation is n^(1/5−1/7)
		// relative to the density bandwidth. We use a modest 1.5× pilot,
		// which is robust across our data files.
		pilot := 1.5 * h
		r2, err := estimateRoughnessSecond(ctx, k, pilot, lo, hi)
		if err != nil {
			return 0, err
		}
		if r2 <= 0 || math.IsNaN(r2) {
			break // flat estimate: keep the current h
		}
		hNew := OptimalBandwidth(n, k, r2)
		if math.IsInf(hNew, 1) || math.IsNaN(hNew) || hNew <= 0 {
			break
		}
		h = hNew
	}
	return h, nil
}

// DPIBinWidthContext is the direct plug-in rule for the equi-width bin
// width over a fit context (see DPIBandwidthContext): iterations estimate
// ∫f'² from a pilot kernel estimate and plug it into eq. 7.
func DPIBinWidthContext(ctx *kde.FitContext, steps int, lo, hi float64) (float64, error) {
	defer ruleNanosDPIBinWidth.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.dpi-binwidth"); err != nil {
		return 0, err
	}
	h, err := NormalScaleBinWidthSorted(ctx.Sorted())
	if err != nil {
		return 0, err
	}
	if steps <= 0 {
		return h, nil
	}
	if !(hi > lo) {
		return 0, fmt.Errorf("bandwidth: DPI needs a proper domain, got [%v, %v]", lo, hi)
	}
	n := ctx.SampleSize()
	// Pilot kernel bandwidth from the normal scale rule; iterate on the
	// functional only.
	k := kernel.Epanechnikov{}
	pilotH, err := NormalScaleBandwidthSorted(ctx.Sorted(), k)
	if err != nil {
		return 0, err
	}
	for step := 0; step < steps; step++ {
		r1, err := estimateRoughnessFirst(ctx, k, pilotH, lo, hi)
		if err != nil {
			return 0, err
		}
		if r1 <= 0 || math.IsNaN(r1) {
			break
		}
		hNew := OptimalBinWidth(n, r1)
		if math.IsInf(hNew, 1) || math.IsNaN(hNew) || hNew <= 0 {
			break
		}
		h = hNew
		// Refine the pilot toward the scale suggested by the new width.
		pilotH = 1.5 * hNew
	}
	return h, nil
}

// functionalGridSize is the grid resolution for numeric functional
// estimation. 512 points keeps the second-difference error well below the
// statistical noise of a 2,000-record sample.
const functionalGridSize = 512

// functionalDX reproduces the grid spacing xs[1]−xs[0] of
// xmath.Linspace(lo, hi, functionalGridSize) without materialising the
// grid: (lo+step)−lo can differ from step in the last bit, and the
// roughness functionals must stay bit-identical to the seed path.
func functionalDX(lo, hi float64) float64 {
	step := (hi - lo) / float64(functionalGridSize-1)
	return (lo + step) - lo
}

// pilotDensityGrid builds one pilot estimate from the fit context and
// evaluates it over the functional grid with a single DensityGrid sweep —
// the seed path paid a fresh sort plus 512 independent windowed scans per
// iteration. Per-pilot build+evaluate durations land in the rule-labeled
// pilot histograms.
func pilotDensityGrid(ctx *kde.FitContext, k kernel.Kernel, h, lo, hi float64, pilotNanos pilotObserver) ([]float64, error) {
	defer pilotNanos.ObserveSince(time.Now())
	e, err := ctx.NewEstimator(kde.Config{Kernel: k, Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return nil, err
	}
	return e.DensityGrid(lo, hi, functionalGridSize), nil
}

// estimateRoughnessSecond estimates ∫f”² from a pilot KDE on a grid.
func estimateRoughnessSecond(ctx *kde.FitContext, k kernel.Kernel, h, lo, hi float64) (float64, error) {
	ys, err := pilotDensityGrid(ctx, k, h, lo, hi, pilotNanosDPI)
	if err != nil {
		return 0, err
	}
	dx := functionalDX(lo, hi)
	d2 := xmath.SecondDerivativeTable(ys, dx)
	for i, v := range d2 {
		d2[i] = v * v
	}
	return xmath.IntegrateSamples(d2, dx), nil
}

// estimateRoughnessFirst estimates ∫f'² from a pilot KDE on a grid.
func estimateRoughnessFirst(ctx *kde.FitContext, k kernel.Kernel, h, lo, hi float64) (float64, error) {
	ys, err := pilotDensityGrid(ctx, k, h, lo, hi, pilotNanosDPIBinWidth)
	if err != nil {
		return 0, err
	}
	dx := functionalDX(lo, hi)
	d1 := xmath.GradientTable(ys, dx)
	for i, v := range d1 {
		d1[i] = v * v
	}
	return xmath.IntegrateSamples(d1, dx), nil
}
