package bandwidth

import (
	"fmt"
	"math"
	"time"

	"selest/internal/errs"
	"selest/internal/faultinject"
	"selest/internal/kernel"
	"selest/internal/parallel"
	"selest/internal/telemetry"
	"selest/internal/xmath"
)

// LSCVBandwidthSorted selects the bandwidth by least-squares
// cross-validation, an extension beyond the paper's rules. LSCV minimises
// an unbiased estimate of the integrated squared error:
//
//	LSCV(h) = ∫f̂² − (2/n)·Σ_i f̂_{−i}(X_i)
//
// over a logarithmic bandwidth grid spanning [hLo, hHi]. It is fully
// data-driven (no normal reference), at the price of O(grid·n·k) work and
// the well-known tendency to undersmooth on heavy-duplicate data. The
// sample must be sorted ascending, and is only read: fit-path callers
// holding a kde.FitContext pass its Sorted() slice.
//
// gridN must be at least 2; smaller values are rejected with an error
// wrapping errs.ErrBadOption (the seed behaviour of silently substituting
// a 32-point grid hid caller bugs).
//
// Grid points are scored concurrently across workers goroutines (≤0
// means GOMAXPROCS). Each grid point's score is an independent pure
// function of (sorted samples, h); scores land in per-index slots and the
// argmin is taken sequentially afterwards with the same first-wins
// tie-breaking as xmath.LogGridMin, so the result is bit-identical to a
// sequential scan at any worker count.
func LSCVBandwidthSorted(sorted []float64, k kernel.Kernel, hLo, hHi float64, gridN, workers int) (float64, error) {
	defer ruleNanosLSCV.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.lscv"); err != nil {
		return 0, err
	}
	if len(sorted) < 2 {
		return 0, fmt.Errorf("bandwidth: LSCV needs at least 2 samples")
	}
	if telemetry.Enabled() {
		fitKindSearched.Inc()
	}
	if !(hLo > 0 && hHi > hLo) {
		return 0, fmt.Errorf("bandwidth: LSCV needs 0 < hLo < hHi, got [%v, %v]", hLo, hHi)
	}
	if gridN < 2 {
		return 0, fmt.Errorf("bandwidth: LSCV needs a grid of at least 2 points, got %d: %w", gridN, errs.ErrBadOption)
	}
	hs := logGrid(hLo, hHi, gridN)
	scores := make([]float64, gridN)
	_ = parallel.ForEach(gridN, workers, func(i int) error {
		scores[i] = lscvScore(sorted, k, hs[i])
		return nil
	})
	best, bestScore := hs[0], scores[0]
	for i := 1; i < gridN; i++ {
		if scores[i] < bestScore {
			best, bestScore = hs[i], scores[i]
		}
	}
	return best, nil
}

// logGrid reproduces the evaluation points of xmath.LogGridMin(f, a, b, n)
// exactly: the first point is a itself (not exp(log a)), the rest are
// exp(la + i·step). Keeping the grid bit-identical to the seed's
// sequential minimiser is what lets the parallel scan select the exact
// same bandwidth.
func logGrid(a, b float64, n int) []float64 {
	la, lb := math.Log(a), math.Log(b)
	step := (lb - la) / float64(n-1)
	hs := make([]float64, n)
	hs[0] = a
	for i := 1; i < n; i++ {
		hs[i] = math.Exp(la + float64(i)*step)
	}
	return hs
}

// lscvScore evaluates the LSCV objective for one bandwidth on sorted
// samples. ∫f̂² is computed exactly through the kernel's self-convolution
// evaluated numerically per sample pair within reach; leave-one-out terms
// reuse the same pair walk. The Epanechnikov kernel — the paper's choice
// and the hot path — dispatches to a devirtualised walk with both closed
// forms inlined.
func lscvScore(sorted []float64, k kernel.Kernel, h float64) float64 {
	if _, ok := k.(kernel.Epanechnikov); ok {
		return lscvScoreEpanechnikov(sorted, h)
	}
	n := len(sorted)
	nf := float64(n)
	reach := 2 * h * k.Support() // pairs farther apart interact in neither term

	// Pairwise accumulation: for each i, walk neighbours j > i within
	// reach. conv(d) = ∫K(t)K(t−d/h)dt evaluated by quadrature; loo(d) =
	// K(d/h).
	var convSum, looSum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && sorted[j]-sorted[i] <= reach; j++ {
			d := (sorted[j] - sorted[i]) / h
			convSum += kernelSelfConvolution(k, d)
			looSum += k.Eval(d)
		}
	}
	// Diagonal terms: conv(0) once per sample; K(0) terms are excluded
	// from leave-one-out by construction.
	convDiag := kernelSelfConvolution(k, 0)

	integralF2 := (nf*convDiag + 2*convSum) / (nf * nf * h)
	leaveOneOut := 2 * looSum / (nf * (nf - 1) * h) // Σ_i Σ_{j≠i} counted once per unordered pair ×2
	return integralF2 - 2*leaveOneOut
}

// lscvScoreEpanechnikov is lscvScore with the interface dispatch removed
// from the O(n·k) pair walk: the self-convolution polynomial and the
// kernel evaluation are the exact same floating-point expressions as
// kernelSelfConvolution and kernel.Epanechnikov.Eval, accumulated in the
// same order, so the score is bit-identical to the generic walk.
func lscvScoreEpanechnikov(sorted []float64, h float64) float64 {
	n := len(sorted)
	nf := float64(n)
	reach := 2 * h // Epanechnikov support is 1

	var convSum, looSum float64
	for i := 0; i < n; i++ {
		xi := sorted[i]
		for j := i + 1; j < n && sorted[j]-xi <= reach; j++ {
			d := (sorted[j] - xi) / h
			if d < 2 {
				convSum += 3.0 / 160.0 * (2 - d) * (2 - d) * (2 - d) * (d*d + 6*d + 4)
			}
			if d <= 1 {
				looSum += 0.75 * (1 - d*d)
			}
		}
	}
	convDiag := 3.0 / 160.0 * 2 * 2 * 2 * 4 // the polynomial at d = 0

	integralF2 := (nf*convDiag + 2*convSum) / (nf * nf * h)
	leaveOneOut := 2 * looSum / (nf * (nf - 1) * h)
	return integralF2 - 2*leaveOneOut
}

// kernelSelfConvolution evaluates (K*K)(d) = ∫K(t)K(t−d)dt. For the
// Epanechnikov kernel the closed form is used; other kernels fall back to
// quadrature over the overlap of the supports.
func kernelSelfConvolution(k kernel.Kernel, d float64) float64 {
	d = math.Abs(d)
	if _, ok := k.(kernel.Epanechnikov); ok {
		if d >= 2 {
			return 0
		}
		// ∫ 9/16 (1−t²)(1−(t−d)²) dt over t ∈ [d−1, 1]; expanding gives the
		// classic polynomial in d below.
		return 3.0 / 160.0 * (2 - d) * (2 - d) * (2 - d) * (d*d + 6*d + 4)
	}
	r := k.Support()
	lo, hi := d-r, r
	if hi <= lo {
		return 0
	}
	return xmath.Simpson(func(t float64) float64 { return k.Eval(t) * k.Eval(t-d) }, lo, hi, 64)
}
