package kde

// The fit-path engine's shared context: the expensive, bandwidth- and
// boundary-independent state of one sample set — the sorted copy and the
// centered prefix-moment index — built once and reused by every estimator
// fitted over that set. The paper's smoothing-parameter rules are
// iterative (the DPI rule builds a pilot density per step, §4.3) and the
// grid searches (LSCV, the oracle h-opt columns) fit dozens of candidate
// estimators; without a context each fit re-sorts and re-indexes the same
// data. The same applies to the hybrid estimator (§3.3), whose per-bin
// sample segments are contiguous slices of one sorted array.
//
// What stays per-estimator: the reflection buffer and its moment index
// (mirror membership depends on the bandwidth) and the boundary-strip log
// prefixes (they depend on the domain and the bandwidth). Both cover only
// the samples within reach of a boundary — h·support for the mirrors, 2h
// for the strip prefixes — so they cost O(boundary samples), not
// O(n log n).

import (
	"fmt"
	"math"
	"slices"

	"selest/internal/errs"
	"selest/internal/fsort"
	"selest/internal/telemetry"
)

// FitContext caches the sorted sample set and its prefix-moment index for
// repeated estimator fits. It is immutable after construction and safe
// for concurrent use by any number of NewEstimator calls.
type FitContext struct {
	sorted  []float64
	moments *momentIndex // nil for magnitudes the closed form cannot trust
}

// NewFitContext builds a fit context from a sample set (copied, then
// sorted once — by the radix sort in internal/fsort, which the fit-path
// profile is dominated by at n = 10⁶).
func NewFitContext(samples []float64) (*FitContext, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("kde: empty sample set")
	}
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	return newFitContextSorted(sorted), nil
}

// NewFitContextSorted builds a fit context over an already-sorted slice,
// which it aliases — the caller must not mutate it afterwards. This is
// the zero-copy entry for callers that already hold sorted data, such as
// the hybrid estimator's per-bin segments (contiguous sub-slices of one
// sorted array) and online refits over the reservoir's sorted view.
// Unsorted input is an error wrapping errs.ErrBadOption.
func NewFitContextSorted(sorted []float64) (*FitContext, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("kde: empty sample set")
	}
	if !slices.IsSorted(sorted) {
		return nil, fmt.Errorf("kde: NewFitContextSorted needs sorted input: %w", errs.ErrBadOption)
	}
	if telemetry.Enabled() {
		fitSortsAvoided.Inc()
	}
	return newFitContextSorted(sorted), nil
}

func newFitContextSorted(sorted []float64) *FitContext {
	return &FitContext{sorted: sorted, moments: newMomentIndex(sorted)}
}

// Sorted returns the context's sorted sample slice. It is shared state:
// callers must treat it as read-only.
func (c *FitContext) Sorted() []float64 { return c.sorted }

// SampleSize returns the number of samples in the context.
func (c *FitContext) SampleSize() int { return len(c.sorted) }

// NewEstimator fits an estimator from the context without re-sorting the
// samples or rebuilding the prefix-moment index. The estimator aliases
// the context's sorted slice and (for the Epanechnikov kernel) its moment
// index; only the bandwidth-dependent reflection set and the
// domain-dependent strip prefixes are built per call. Results are
// bit-identical to New over the same samples.
func (c *FitContext) NewEstimator(cfg Config) (*Estimator, error) {
	if telemetry.Enabled() {
		fitSortsAvoided.Inc()
	}
	// newSorted ignores the shared index for non-Epanechnikov kernels, so
	// passing it unconditionally is safe.
	return newSorted(c.sorted, cfg, c.moments)
}

// NewBetaEstimator fits a beta-kernel estimator (beta.go) from the
// context, reusing its sort and prefix-moment index. Results are
// bit-identical to NewBeta over the same samples.
func (c *FitContext) NewBetaEstimator(cfg BetaConfig) (*BetaEstimator, error) {
	if telemetry.Enabled() {
		fitSortsAvoided.Inc()
	}
	return newBetaSorted(c.sorted, cfg, c.moments)
}

// MomentSummary returns the sample mean and (population) variance. With a
// moment index the totals are an O(1) read off its last entry, which
// covers every sample; otherwise one centered pass computes them. ok is
// false when the sample is empty or the result is not finite.
func (c *FitContext) MomentSummary() (mean, variance float64, ok bool) {
	n := len(c.sorted)
	if n == 0 {
		return 0, 0, false
	}
	nf := float64(n)
	if m := c.moments; m != nil {
		t := m.totals()
		d := t.s1.val() / nf
		mean = m.c + d
		variance = t.s2.val()/nf - d*d
	} else {
		// Center on the hull midpoint, as the index would.
		center := 0.5*c.sorted[0] + 0.5*c.sorted[n-1]
		var s1, s2 float64
		for _, x := range c.sorted {
			d := x - center
			s1 += d
			s2 += d * d
		}
		d := s1 / nf
		mean = center + d
		variance = s2/nf - d*d
	}
	if variance < 0 {
		variance = 0
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(variance) || math.IsInf(variance, 0) {
		return mean, variance, false
	}
	return mean, variance, true
}
