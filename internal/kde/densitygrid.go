package kde

// Batched grid evaluation of the density: the fit path evaluates pilot
// densities on regular grids (the DPI roughness functionals ∫f'², ∫f”²
// over 512 points, the hybrid change-point scan), and each pointwise
// Density(x) call re-runs two binary searches and an O(k) window loop —
// with pilot bandwidths the windows overlap heavily, so m grid points
// cost O(m·k) kernel evaluations. DensityGrid answers the whole grid in
// one ascending sweep: the window cursors only ever move forward
// (galloping probes), and each point is an O(1) prefix-moment closed
// form (momentIndex.densitySum), for O(m) evaluations plus O(n) total
// cursor movement regardless of bandwidth.

import (
	"math"

	"selest/internal/telemetry"
	"selest/internal/xmath"
)

// DensityGrid returns the estimated density f̂ at m equally spaced points
// spanning [lo, hi] inclusive (xmath.Linspace semantics; m < 2 yields the
// single point lo). Each value matches the corresponding Density call to
// within double-double closed-form accuracy (≤1e-12 relative — the
// property test pins it); kernels or magnitudes without a moment index
// fall back to pointwise evaluation, keeping the API total.
func (e *Estimator) DensityGrid(lo, hi float64, m int) []float64 {
	xs := xmath.Linspace(lo, hi, m)
	out := make([]float64, len(xs))
	if telemetry.Enabled() {
		fitGridEvals.Add(int64(len(xs)))
	}
	if e.moments == nil {
		for i, x := range xs {
			out[i] = e.Density(x)
		}
		return out
	}
	switch e.mode {
	case BoundaryKernels:
		e.densityGridBoundaryKernels(xs, out)
	case BoundaryReflect:
		e.densityGridReflect(xs, out)
	default:
		inv := 1 / (float64(e.n) * e.h)
		var cl, cr int
		for i, x := range xs {
			cl = advanceGE(e.moments.xs, cl, x-e.h)
			cr = advanceGT(e.moments.xs, cr, x+e.h)
			out[i] = e.moments.densitySum(cl, cr, x, e.h) * inv
		}
	}
	return out
}

// densityGridReflect sweeps the original and mirrored moment indexes in
// one pass; points outside the domain evaluate to 0, matching Density.
func (e *Estimator) densityGridReflect(xs, out []float64) {
	inv := 1 / (float64(e.n) * e.h)
	var cl, cr, rl, rr int
	for i, x := range xs {
		if x < e.lo || x > e.hi {
			out[i] = 0
			continue
		}
		cl = advanceGE(e.moments.xs, cl, x-e.h)
		cr = advanceGT(e.moments.xs, cr, x+e.h)
		sum := e.moments.densitySum(cl, cr, x, e.h)
		if e.reflMoments != nil {
			rl = advanceGE(e.reflMoments.xs, rl, x-e.h)
			rr = advanceGT(e.reflMoments.xs, rr, x+e.h)
			sum += e.reflMoments.densitySum(rl, rr, x, e.h)
		}
		out[i] = sum * inv
	}
}

// densityGridBoundaryKernels sweeps the interior through the moment
// closed form and evaluates the two boundary strips pointwise — strip
// points see only the samples within 2h of their boundary, so the strips
// cost O(strip points · boundary samples), unchanged from Density.
func (e *Estimator) densityGridBoundaryKernels(xs, out []float64) {
	mid := 0.5 * (e.lo + e.hi)
	leftEnd := math.Min(e.lo+e.h, mid)
	rightStart := math.Max(e.hi-e.h, mid)
	inv := 1 / (float64(e.n) * e.h)
	var cl, cr int
	for i, x := range xs {
		switch {
		case x < e.lo || x > e.hi:
			out[i] = 0
		case x < leftEnd || x > rightStart:
			out[i] = e.densityBoundaryKernels(x)
		default:
			cl = advanceGE(e.moments.xs, cl, x-e.h)
			cr = advanceGT(e.moments.xs, cr, x+e.h)
			out[i] = e.moments.densitySum(cl, cr, x, e.h) * inv
		}
	}
}

// densityGridPointwise is the ablation reference for DensityGrid: the
// same grid answered by m independent Density calls. Benches and the
// property test compare against it.
func (e *Estimator) densityGridPointwise(lo, hi float64, m int) []float64 {
	xs := xmath.Linspace(lo, hi, m)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = e.Density(x)
	}
	return out
}
