// Package core ties the estimator substrates together: it defines the
// common Estimator interface and a single Build entry point that
// constructs any of the paper's estimation methods from a sample set and a
// declarative Options value, applying the paper's smoothing-parameter
// rules when the caller does not fix the parameter explicitly.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"selest/internal/bandwidth"
	"selest/internal/faultinject"
	"selest/internal/fsort"
	"selest/internal/histogram"
	"selest/internal/hybrid"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/sample"
	"selest/internal/telemetry"
	"selest/internal/wavelet"
)

// Estimator is a one-dimensional range-selectivity estimator: Selectivity
// returns the estimated fraction of records in [a, b], in [0, 1]. The
// contract is total over the query plane: an inverted range (a > b) or a
// NaN bound yields 0, never NaN — degraded queries must degrade the
// answer, not poison downstream cardinality arithmetic.
type Estimator interface {
	Selectivity(a, b float64) float64
	// Name identifies the estimator in experiment output.
	Name() string
}

// Method selects an estimation technique.
type Method string

// The estimation methods of the paper's comparison, plus the v-optimal
// extension.
const (
	// Sampling is the pure-sampling baseline (paper §2).
	Sampling Method = "sampling"
	// Uniform is the one-bin uniform-assumption estimator (System R).
	Uniform Method = "uniform"
	// EquiWidth is the equi-width histogram (paper §3.1).
	EquiWidth Method = "equi-width"
	// EquiDepth is the equi-depth histogram (paper §3.1).
	EquiDepth Method = "equi-depth"
	// MaxDiff is the max-diff histogram (paper §3.1).
	MaxDiff Method = "max-diff"
	// VOptimal is the v-optimal histogram (extension baseline).
	VOptimal Method = "v-optimal"
	// EndBiased is the end-biased histogram (extension): exact singleton
	// buckets for the most frequent values plus an equi-width rest.
	EndBiased Method = "end-biased"
	// Wavelet is the Haar-wavelet synopsis estimator of Matias, Vitter &
	// Wang (the paper's reference [4]; extension comparator).
	Wavelet Method = "wavelet"
	// ASH is the average shifted histogram (paper §3.1).
	ASH Method = "ash"
	// FrequencyPolygon interpolates an equi-width histogram's bin
	// densities linearly (extension): kernel-class convergence at
	// histogram cost, and no jump points.
	FrequencyPolygon Method = "frequency-polygon"
	// Kernel is kernel selectivity estimation (paper §3.2).
	Kernel Method = "kernel"
	// BetaKernel is the beta-kernel estimator (extension): a renormalized
	// Epanechnikov estimator on the bounded domain whose closed-form
	// bandwidth rules make refits sort-dominated.
	BetaKernel Method = "beta-kernel"
	// VariableKernel is sample-point adaptive kernel estimation
	// (Abramson's square-root law; extension beyond the paper).
	VariableKernel Method = "variable-kernel"
	// Hybrid is the paper's histogram/kernel hybrid (§3.3).
	Hybrid Method = "hybrid"
)

// Methods lists every method Build accepts, in comparison order.
func Methods() []Method {
	return []Method{Sampling, Uniform, EquiWidth, EquiDepth, MaxDiff, VOptimal, EndBiased, Wavelet, ASH, FrequencyPolygon, Kernel, BetaKernel, VariableKernel, Hybrid}
}

// BandwidthRule selects how the smoothing parameter is chosen when the
// caller does not fix it (paper §4).
type BandwidthRule string

// The smoothing-parameter selection rules.
const (
	// NormalScale is the paper's normal scale rule (§4.1/§4.2 — the
	// default).
	NormalScale BandwidthRule = "normal-scale"
	// DPI is the direct plug-in rule (§4.3) with two iteration steps,
	// the paper's choice.
	DPI BandwidthRule = "dpi"
	// LSCV is least-squares cross-validation (extension).
	LSCV BandwidthRule = "lscv"
	// BetaClosedForm is the closed-form beta-reference plug-in (extension):
	// O(1) off the fit context's prefix moments, no pilot cascade.
	BetaClosedForm BandwidthRule = "beta-closed-form"
	// ExactMISE is the closed-form CDF-targeted selector (extension): the
	// exact minimiser of the kernel-CDF MISE under the beta reference.
	ExactMISE BandwidthRule = "exact-mise"
)

// Options configures Build. The zero value plus a domain builds a kernel
// estimator with the normal scale rule and no boundary treatment
// (Boundary's zero value is kde.BoundaryNone); the paper's best kernel
// configuration sets Boundary to kde.BoundaryKernels. Every kernel
// method smooths with the Epanechnikov kernel (§3.2), and the hybrid
// takes package hybrid's defaults.
type Options struct {
	// Method selects the estimator; empty defaults to Kernel.
	Method Method
	// DomainLo/DomainHi bound the attribute domain. Required.
	DomainLo, DomainHi float64

	// Bins fixes the number of histogram bins; 0 derives it from the
	// bin-width rule. Ignored by non-histogram methods.
	Bins int

	// Bandwidth fixes the kernel bandwidth; 0 derives it from Rule.
	Bandwidth float64
	// Rule selects the smoothing-parameter rule when Bins/Bandwidth are
	// derived; empty defaults to NormalScale.
	Rule BandwidthRule
	// Boundary selects the kernel boundary treatment; the zero value is
	// kde.BoundaryNone. The paper's best kernel configuration uses
	// kde.BoundaryKernels.
	Boundary kde.BoundaryMode
}

// The fixed settings of the methods that Options does not parameterise.
const (
	// maxBins caps rule-derived bin counts: a safety net for degenerate
	// scale estimates.
	maxBins = 8192
	// ashShifts is the number of shifted histograms ASH averages, the
	// paper's figure-12 configuration.
	ashShifts = 10
	// singletons is the number of exact singleton buckets of the
	// end-biased histogram.
	singletons = 16
	// dpiSteps is the DPI iteration count (§4.3: "two or three iteration
	// steps are sufficient").
	dpiSteps = 2
)

// Build constructs the estimator described by opts from the sample set.
// Structural failures wrap the typed sentinel errors (ErrEmptySample,
// ErrInvalidDomain, ErrBadOption) so callers can branch with errors.Is;
// a NaN or ±Inf sample is an ErrBadOption.
// Every successful fit records its method, duration, and derived
// smoothing parameter into the telemetry registry.
//
// Build is the fit path's one sort: it copies the samples, sorts the copy
// once (internal/fsort), and fits from it exactly as BuildSorted would,
// so every rule and builder below takes the sorted sample or a
// kde.FitContext over it.
func Build(samples []float64, opts Options) (Estimator, error) {
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	return build(sorted, opts)
}

// BuildSorted is Build over samples sorted ascending that the caller
// never modifies afterwards, such as an online reservoir's sorted view:
// it skips Build's copy and sort, every builder reads the samples in
// place, and the fits that keep a sample (sampling, the kernel methods,
// the hybrid) alias them. The answers are bit-identical to Build's over
// the same samples. Unsorted input is an error wrapping ErrBadOption.
func BuildSorted(sorted []float64, opts Options) (Estimator, error) {
	// The kernel methods' fit context checks the order of what it
	// aliases; every other method is checked here, so each view is read
	// once for it.
	if method := opts.method(); method != Kernel && method != BetaKernel && !slices.IsSorted(sorted) {
		return nil, fmt.Errorf("core: build %s: samples are not sorted: %w", method, ErrBadOption)
	}
	if telemetry.Enabled() {
		fitSortsAvoided.Inc()
	}
	return build(sorted, opts)
}

// build fits the estimator opts describes from samples sorted ascending.
// Non-finite samples are an error: in ascending order NaNs and −Inf come
// first and +Inf last, so the two ends show them.
func build(sorted []float64, opts Options) (Estimator, error) {
	method := opts.method()
	n := len(sorted)
	if n == 0 {
		return nil, fmt.Errorf("core: build %s: %w", method, ErrEmptySample)
	}
	if lo, hi := sorted[0], sorted[n-1]; math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("core: build %s: non-finite sample (the sorted sample runs from %v to %v): %w", method, lo, hi, ErrBadOption)
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: build %s: %w", method, err)
	}
	start := time.Now()
	est, err := dispatch(sorted, opts, method)
	recordFit(method, start, err)
	return est, err
}

// method returns the configured method, defaulting to Kernel.
func (o Options) method() Method {
	if o.Method == "" {
		return Kernel
	}
	return o.Method
}

// Ladder returns the options of each rung of a degradation ladder: the
// requested method (opts.Method, Kernel when unset) first, then one rung
// per method of below that differs from it, since repeating the
// requested method would repeat its failure. A histogram rung swaps a
// kernel-only rule for the normal-scale rule: LSCV and the closed-form
// rules select kernel bandwidths, not bin counts, so stepping down never
// fails on the rule alone.
func Ladder(opts Options, below []Method) []Options {
	top := opts.method()
	rungs := make([]Options, 0, 1+len(below))
	for i, m := range append([]Method{top}, below...) {
		if i > 0 && m == top {
			continue
		}
		o := opts
		o.Method = m
		if isHistogramMethod(m) && KernelOnlyRule(o.Rule) {
			o.Rule = NormalScale
		}
		rungs = append(rungs, o)
	}
	return rungs
}

// dispatch routes the validated option set to the method's builder, each
// of which reads the sorted sample in place.
func dispatch(sorted []float64, opts Options, method Method) (Estimator, error) {
	if err := faultinject.Check("core.build." + string(method)); err != nil {
		return nil, fmt.Errorf("core: build %s: %w", method, err)
	}
	switch method {
	case Sampling:
		return sample.NewPureEstimator(sorted), nil
	case Uniform:
		return histogram.BuildUniform(sorted, opts.DomainLo, opts.DomainHi)
	case EquiWidth:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildEquiWidth(sorted, k, opts.DomainLo, opts.DomainHi)
	case EquiDepth:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildEquiDepth(sorted, k)
	case MaxDiff:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildMaxDiff(sorted, k)
	case VOptimal:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildVOptimal(sorted, k, 0)
	case EndBiased:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildEndBiased(sorted, singletons, k, opts.DomainLo, opts.DomainHi)
	case Wavelet:
		return wavelet.New(sorted, wavelet.Config{DomainLo: opts.DomainLo, DomainHi: opts.DomainHi})
	case ASH:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildASH(sorted, k, ashShifts, opts.DomainLo, opts.DomainHi)
	case FrequencyPolygon:
		k, err := binCount(sorted, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildFrequencyPolygon(sorted, k, opts.DomainLo, opts.DomainHi)
	case Kernel:
		// One fit context serves the bandwidth rule (every DPI pilot, every
		// LSCV grid point) and the final estimator: the sample is
		// moment-indexed exactly once per build.
		ctx, err := kde.NewFitContextSorted(sorted)
		if err != nil {
			return nil, err
		}
		h, err := kernelBandwidth(ctx, opts, method)
		if err != nil {
			return nil, err
		}
		return ctx.NewEstimator(kde.Config{
			Bandwidth: h,
			Boundary:  opts.Boundary,
			DomainLo:  opts.DomainLo,
			DomainHi:  opts.DomainHi,
		})
	case BetaKernel:
		// Same shared-context discipline as Kernel: one moment index
		// serves the closed-form rule and the estimator. The default rule
		// here is BetaClosedForm — the rule the method exists for.
		ctx, err := kde.NewFitContextSorted(sorted)
		if err != nil {
			return nil, err
		}
		betaOpts := opts
		if betaOpts.Rule == "" {
			betaOpts.Rule = BetaClosedForm
		}
		h, err := kernelBandwidth(ctx, betaOpts, method)
		if err != nil {
			return nil, err
		}
		return ctx.NewBetaEstimator(kde.BetaConfig{
			Bandwidth: h,
			DomainLo:  opts.DomainLo,
			DomainHi:  opts.DomainHi,
		})
	case VariableKernel:
		ctx, err := kde.NewFitContextSorted(sorted)
		if err != nil {
			return nil, err
		}
		h, err := kernelBandwidth(ctx, opts, method)
		if err != nil {
			return nil, err
		}
		return ctx.NewVariableEstimator(kde.VariableConfig{
			PilotBandwidth: h,
			Reflect:        opts.Boundary != kde.BoundaryNone,
			DomainLo:       opts.DomainLo,
			DomainHi:       opts.DomainHi,
		})
	case Hybrid:
		return hybrid.New(sorted, opts.DomainLo, opts.DomainHi, hybrid.Config{})
	default:
		return nil, fmt.Errorf("core: unknown method %q (valid: %s): %w", method, methodNames(), ErrBadOption)
	}
}

// binCount resolves the histogram bin count from Options over the sorted
// sample, recording the derived count for the method in the telemetry
// registry.
func binCount(sorted []float64, opts Options, method Method) (int, error) {
	if opts.Bins > 0 {
		recordBins(method, opts.Bins)
		return opts.Bins, nil
	}
	rule := opts.Rule
	if rule == "" {
		rule = NormalScale
	}
	var (
		width float64
		err   error
	)
	switch rule {
	case NormalScale:
		width, err = bandwidth.NormalScaleBinWidthSorted(sorted)
	case DPI:
		var ctx *kde.FitContext
		if ctx, err = kde.NewFitContextSorted(sorted); err == nil {
			width, err = bandwidth.DPIBinWidthContext(ctx, dpiSteps, opts.DomainLo, opts.DomainHi)
		}
	case LSCV, BetaClosedForm, ExactMISE:
		return 0, fmt.Errorf("core: %s selects kernel bandwidths, not bin counts: %w", rule, ErrBadOption)
	default:
		return 0, fmt.Errorf("core: unknown bandwidth rule %q (valid: %s): %w", rule, ruleNames(), ErrBadOption)
	}
	if err != nil {
		return 0, err
	}
	k := bandwidth.BinsForWidth(width, opts.DomainLo, opts.DomainHi, maxBins)
	recordBins(method, k)
	return k, nil
}

// kernelBandwidth resolves the kernel bandwidth from Options over the
// fit context the method's estimator is fitted from, recording the
// derived bandwidth for the method in the telemetry registry.
func kernelBandwidth(ctx *kde.FitContext, opts Options, method Method) (float64, error) {
	if opts.Bandwidth > 0 {
		recordBandwidth(method, opts.Bandwidth)
		return opts.Bandwidth, nil
	}
	k := kernel.Epanechnikov{}
	rule := opts.Rule
	if rule == "" {
		rule = NormalScale
	}
	var (
		h   float64
		err error
	)
	switch rule {
	case NormalScale:
		h, err = bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), k)
	case DPI:
		h, err = bandwidth.DPIBandwidthContext(ctx, k, dpiSteps, opts.DomainLo, opts.DomainHi)
	case LSCV:
		span := opts.DomainHi - opts.DomainLo
		h, err = bandwidth.LSCVBandwidthSorted(ctx.Sorted(), k, span/1e4, span/2, 48, 0)
	case BetaClosedForm:
		h, err = bandwidth.BetaClosedFormContext(ctx)
	case ExactMISE:
		h, err = bandwidth.ExactMISECDFContext(ctx)
	default:
		return 0, fmt.Errorf("core: unknown bandwidth rule %q (valid: %s): %w", rule, ruleNames(), ErrBadOption)
	}
	if err != nil {
		return 0, err
	}
	recordBandwidth(method, h)
	return h, nil
}
