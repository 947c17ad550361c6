// Package robust wraps core.Build in a graceful-degradation ladder so a
// serving system never trades an answer for an error. The paper's
// comparison assumes clean samples and converging smoothing rules; a
// production estimator sees NaNs from corrupted pages, constant columns,
// and bandwidth rules that diverge on pathological data. Build therefore
//
//  1. sanitizes the sample set — non-finite values are scrubbed,
//     out-of-domain values are clamped to the domain, and a constant
//     (or single-element) sample yields a point-mass estimator instead
//     of an error;
//  2. walks an ordered ladder of estimation methods — by default
//     Kernel(boundary kernels) → EquiDepth → Sampling → Uniform —
//     stepping down whenever a rung fails to fit, and recording every
//     failed attempt in a Report;
//  3. contains panics: a panic inside a fit becomes a failed rung, and a
//     panic inside a served Selectivity call becomes a per-query uniform
//     fallback instead of a crashed caller;
//  4. guards every estimate — inverted queries are swapped, NaN bounds
//     answer 0, and the result is clamped to a finite value in [0, 1].
//
// The ladder is exercised rung by rung in tests through the
// internal/faultinject registry, which can force a failure in any fit
// stage (bandwidth rule, core dispatch, hybrid change-point detection).
package robust

import (
	"fmt"
	"math"
	"sync/atomic"

	"selest/internal/core"
	"selest/internal/fsort"
	"selest/internal/kde"
)

// DefaultLadder returns the degradation ladder appended below the
// requested method: each rung is structurally simpler and harder to break
// than the one above it. Uniform cannot fail on a sanitized sample set
// with a proper domain.
func DefaultLadder() []core.Method {
	return []core.Method{core.Kernel, core.EquiDepth, core.Sampling, core.Uniform}
}

// SanitizeReport describes what input scrubbing did to the sample set.
type SanitizeReport struct {
	// Total is the original sample count, Kept the count after scrubbing.
	Total, Kept int
	// Dropped counts NaN/±Inf values removed.
	Dropped int
	// Clamped counts finite values moved onto the domain boundary.
	Clamped int
	// Constant reports that the surviving samples were all equal, so a
	// point-mass estimator was returned without touching the ladder.
	Constant bool
}

// Attempt records one failed rung of the ladder.
type Attempt struct {
	// Method is the rung that failed.
	Method core.Method
	// Err is the failure rendered as text (panics appear as
	// "panic: ..."), naming the stage that failed.
	Err string
	// Panicked reports that the failure was a recovered panic rather
	// than a returned error.
	Panicked bool
}

// Report describes how Build arrived at the estimator it returned.
type Report struct {
	// Requested is the method the caller asked for (after defaulting).
	Requested core.Method
	// Rung is the method that actually serves; "point-mass" when the
	// sanitizer short-circuited on a constant sample.
	Rung core.Method
	// Degraded reports that Rung differs from Requested.
	Degraded bool
	// Attempts lists the failed rungs in ladder order.
	Attempts []Attempt
	// Sanitize describes the input scrubbing.
	Sanitize SanitizeReport
	// DomainLo/DomainHi are the effective domain bounds after
	// auto-derivation from the sample hull when the caller's domain was
	// empty.
	DomainLo, DomainHi float64
}

// String renders the report for log lines and CLI warnings.
func (r *Report) String() string {
	s := fmt.Sprintf("rung=%s", r.Rung)
	if r.Degraded {
		s += fmt.Sprintf(" (requested %s)", r.Requested)
	}
	if r.Sanitize.Dropped > 0 || r.Sanitize.Clamped > 0 {
		s += fmt.Sprintf(" sanitized=%d dropped, %d clamped of %d",
			r.Sanitize.Dropped, r.Sanitize.Clamped, r.Sanitize.Total)
	}
	for _, a := range r.Attempts {
		s += fmt.Sprintf("; %s failed: %s", a.Method, a.Err)
	}
	return s
}

// PointMassMethod is the Report.Rung value for the sanitizer's
// constant-sample short circuit.
const PointMassMethod core.Method = "point-mass"

// Estimator is the panic-safe serving wrapper Build returns. Selectivity
// never panics, never returns NaN, and always answers in [0, 1]; a panic
// in the wrapped estimator degrades that query to the uniform assumption
// over the domain.
type Estimator struct {
	inner  core.Estimator
	lo, hi float64
	report *Report

	queryPanics atomic.Int64
}

var _ core.Estimator = (*Estimator)(nil)

// Selectivity answers the range query with every output guard applied:
// NaN bounds yield 0, inverted bounds are swapped, and the wrapped
// estimate is clamped to a finite value in [0, 1].
func (e *Estimator) Selectivity(a, b float64) (s float64) {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	defer func() {
		if r := recover(); r != nil {
			e.queryPanics.Add(1)
			robustQueryPanics.Inc()
			s = e.uniformFallback(a, b)
		}
	}()
	s = e.inner.Selectivity(a, b)
	switch {
	case math.IsNaN(s) || s < 0:
		return 0
	case s > 1:
		return 1
	}
	return s
}

// uniformFallback is the per-query degradation target when the wrapped
// estimator panics: the uniform assumption over the effective domain.
func (e *Estimator) uniformFallback(a, b float64) float64 {
	if !(e.hi > e.lo) {
		return 0
	}
	overlap := math.Min(b, e.hi) - math.Max(a, e.lo)
	if !(overlap > 0) {
		return 0
	}
	if f := overlap / (e.hi - e.lo); f < 1 {
		return f
	}
	return 1
}

// Name identifies the estimator in experiment output.
func (e *Estimator) Name() string { return "robust(" + e.inner.Name() + ")" }

// Report returns the build report: the rung serving, failed attempts, and
// the sanitizer's account of the input.
func (e *Estimator) Report() *Report { return e.report }

// QueryPanics returns how many Selectivity calls were recovered from a
// panic in the wrapped estimator and answered with the uniform fallback.
func (e *Estimator) QueryPanics() int64 { return e.queryPanics.Load() }

// Unwrap returns the estimator serving behind the guard, for diagnostics.
func (e *Estimator) Unwrap() core.Estimator { return e.inner }

// pointMass is the estimator for a constant sample: all mass sits at one
// value, so a query's selectivity is 1 when it covers the value and 0
// otherwise.
type pointMass struct{ v float64 }

func (p pointMass) Selectivity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	if a <= p.v && p.v <= b {
		return 1
	}
	return 0
}

func (p pointMass) Name() string { return "point-mass" }

// Build constructs an estimator that cannot fail on any sample set
// containing at least one finite value. opts.Method (default Kernel) is
// the top rung; the DefaultLadder rungs follow. The returned Report is
// never nil. The only error is a sample set with no finite values and no
// usable domain — there is nothing to estimate from.
func Build(samples []float64, opts core.Options) (*Estimator, *Report, error) {
	method := opts.Method
	if method == "" {
		method = core.Kernel
	}
	report := &Report{Requested: method}

	// An explicitly inverted or NaN domain is a caller bug the ladder must
	// not paper over — sanitization fixes dirty data, not wrong programs.
	// (An unset or merely degenerate domain still derives from the sample
	// hull below.)
	if math.IsNaN(opts.DomainLo) || math.IsNaN(opts.DomainHi) {
		return nil, report, fmt.Errorf("robust: domain [%v, %v] has NaN bounds: %w", opts.DomainLo, opts.DomainHi, core.ErrInvalidDomain)
	}
	if opts.DomainLo > opts.DomainHi {
		return nil, report, fmt.Errorf("robust: domain [%v, %v] is inverted: %w", opts.DomainLo, opts.DomainHi, core.ErrInvalidDomain)
	}

	clean, lo, hi, err := sanitize(samples, opts.DomainLo, opts.DomainHi, &report.Sanitize)
	if err != nil {
		return nil, report, err
	}
	report.DomainLo, report.DomainHi = lo, hi

	if report.Sanitize.Constant {
		report.Rung = PointMassMethod
		report.Degraded = method != PointMassMethod
		recordReport(report)
		return &Estimator{inner: pointMass{v: clean[0]}, lo: lo, hi: hi, report: report}, report, nil
	}

	opts.DomainLo, opts.DomainHi = lo, hi
	for _, o := range core.Ladder(opts, DefaultLadder()) {
		if o.Method == core.Kernel && o.Boundary == kde.BoundaryNone {
			// The ladder's kernel rung is the paper's best configuration.
			o.Boundary = kde.BoundaryKernels
		}
		est, err := safeBuild(clean, o)
		if err != nil {
			report.Attempts = append(report.Attempts, Attempt{
				Method:   o.Method,
				Err:      err.Error(),
				Panicked: isRecovered(err),
			})
			continue
		}
		report.Rung = o.Method
		report.Degraded = o.Method != method
		recordReport(report)
		return &Estimator{inner: est, lo: lo, hi: hi, report: report}, report, nil
	}
	return nil, report, fmt.Errorf("robust: every rung failed: %s", report.String())
}

// recoveredError marks an error that was converted from a panic, so the
// Report can distinguish containment from ordinary failure.
type recoveredError struct{ err error }

func (r recoveredError) Error() string { return r.err.Error() }
func (r recoveredError) Unwrap() error { return r.err }

func isRecovered(err error) bool {
	_, ok := err.(recoveredError)
	return ok
}

// safeBuild runs core.BuildSorted over the sanitized, sorted sample with
// panic containment: a panic in any fit stage becomes an error and
// therefore a failed rung, not a crashed caller.
func safeBuild(sorted []float64, opts core.Options) (est core.Estimator, err error) {
	defer func() {
		if r := recover(); r != nil {
			est = nil
			err = recoveredError{fmt.Errorf("panic: %v", r)}
		}
	}()
	est, err = core.BuildSorted(sorted, opts)
	if err == nil && est == nil {
		err = fmt.Errorf("robust: builder returned no estimator")
	}
	return est, err
}

// sanitize scrubs the sample set into a sorted copy, which every rung of
// the ladder fits in place, and resolves the effective domain: non-finite
// values are dropped; with a proper caller domain, finite out-of-domain
// values are clamped onto the nearest boundary; without one, the domain
// is derived from the surviving sample hull. A constant result sets
// rep.Constant (the point-mass short circuit).
func sanitize(samples []float64, lo, hi float64, rep *SanitizeReport) ([]float64, float64, float64, error) {
	rep.Total = len(samples)
	haveDomain := hi > lo && !math.IsInf(lo, 0) && !math.IsInf(hi, 0) && !math.IsNaN(lo) && !math.IsNaN(hi)

	clean := make([]float64, 0, len(samples))
	for _, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Dropped++
			continue
		}
		if haveDomain {
			if v < lo {
				v = lo
				rep.Clamped++
			} else if v > hi {
				v = hi
				rep.Clamped++
			}
		}
		clean = append(clean, v)
	}
	rep.Kept = len(clean)
	if len(clean) == 0 {
		return nil, 0, 0, fmt.Errorf("robust: no finite samples (of %d offered): %w", rep.Total, core.ErrEmptySample)
	}

	fsort.Float64s(clean)
	min, max := clean[0], clean[len(clean)-1]
	if !haveDomain {
		lo, hi = min, max
	}
	if min == max {
		rep.Constant = true
		return clean[:1], lo, hi, nil
	}
	return clean, lo, hi, nil
}
