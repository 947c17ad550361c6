// Package core ties the estimator substrates together: it defines the
// common Estimator interface and a single Build entry point that
// constructs any of the paper's estimation methods from a sample set and a
// declarative Options value, applying the paper's smoothing-parameter
// rules when the caller does not fix the parameter explicitly.
package core

import (
	"fmt"
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
	// bandwidth rules make refits sort-dominated. Epanechnikov only.
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
	// DPI is the direct plug-in rule (§4.3); Options.DPISteps sets the
	// iteration count (default 2, the paper's choice).
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
// estimator with the Epanechnikov kernel and the normal scale rule, and
// no boundary treatment (Boundary's zero value is kde.BoundaryNone); the
// paper's best kernel configuration sets Boundary to
// kde.BoundaryKernels.
type Options struct {
	// Method selects the estimator; empty defaults to Kernel.
	Method Method
	// DomainLo/DomainHi bound the attribute domain. Required.
	DomainLo, DomainHi float64

	// Bins fixes the number of histogram bins; 0 derives it from the
	// bin-width rule. Ignored by non-histogram methods.
	Bins int
	// MaxBins caps rule-derived bin counts (0 = 8192, a safety net for
	// degenerate scale estimates). Ignored when Bins is set.
	MaxBins int
	// ASHShifts sets the number of shifted histograms for ASH
	// (0 = 10, the paper's figure-12 configuration).
	ASHShifts int
	// Singletons sets the number of exact singleton buckets for the
	// end-biased histogram (0 = 16).
	Singletons int
	// WaveletCoefficients sets the synopsis size of the wavelet estimator
	// (0 = 64).
	WaveletCoefficients int

	// Bandwidth fixes the kernel bandwidth; 0 derives it from Rule.
	Bandwidth float64
	// Rule selects the smoothing-parameter rule when Bins/Bandwidth are
	// derived; empty defaults to NormalScale.
	Rule BandwidthRule
	// DPISteps is the DPI iteration count; 0 defaults to 2.
	DPISteps int
	// Kernel selects the kernel function; nil defaults to Epanechnikov.
	Kernel kernel.Kernel
	// Boundary selects the kernel boundary treatment; the zero value is
	// kde.BoundaryNone. The paper's best kernel configuration uses
	// kde.BoundaryKernels.
	Boundary kde.BoundaryMode

	// HybridConfig tunes the hybrid estimator; the zero value applies the
	// defaults of package hybrid.
	HybridConfig hybrid.Config

	// Robust routes construction through the graceful-degradation ladder
	// of internal/robust: inputs are sanitized, fit failures step down the
	// ladder (kernel → equi-depth → sampling → uniform), and every
	// estimate is guarded to be finite and in [0, 1]. The flag is
	// interpreted by the top-level selest.Build (and cmd/selest's -robust
	// flag); core.Build itself always performs the strict single-method
	// fit.
	Robust bool
}

// Build constructs the estimator described by opts from the sample set.
// Structural failures wrap the typed sentinel errors (ErrEmptySample,
// ErrInvalidDomain, ErrBadOption) so callers can branch with errors.Is.
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
// it skips Build's copy and sort, and the kernel and beta-kernel fits
// alias the samples. The answers are bit-identical to Build's over the
// same samples. Unsorted input is an error wrapping ErrBadOption.
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
func build(sorted []float64, opts Options) (Estimator, error) {
	method := opts.method()
	if len(sorted) == 0 {
		return nil, fmt.Errorf("core: build %s: %w", method, ErrEmptySample)
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

// dispatch routes the validated option set to the method's builder.
func dispatch(samples []float64, opts Options, method Method) (Estimator, error) {
	if err := faultinject.Check("core.build." + string(method)); err != nil {
		return nil, fmt.Errorf("core: build %s: %w", method, err)
	}
	switch method {
	case Sampling:
		return sample.NewPureEstimator(samples), nil
	case Uniform:
		return histogram.BuildUniform(samples, opts.DomainLo, opts.DomainHi)
	case EquiWidth:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildEquiWidth(samples, k, opts.DomainLo, opts.DomainHi)
	case EquiDepth:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildEquiDepthSorted(samples, k)
	case MaxDiff:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildMaxDiff(samples, k)
	case VOptimal:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildVOptimal(samples, k, 0)
	case EndBiased:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		singles := opts.Singletons
		if singles == 0 {
			singles = 16
		}
		return histogram.BuildEndBiased(samples, singles, k, opts.DomainLo, opts.DomainHi)
	case Wavelet:
		return wavelet.New(samples, wavelet.Config{
			Coefficients: opts.WaveletCoefficients,
			DomainLo:     opts.DomainLo,
			DomainHi:     opts.DomainHi,
		})
	case ASH:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		shifts := opts.ASHShifts
		if shifts == 0 {
			shifts = 10
		}
		return histogram.BuildASH(samples, k, shifts, opts.DomainLo, opts.DomainHi)
	case FrequencyPolygon:
		k, err := binCount(samples, opts, method)
		if err != nil {
			return nil, err
		}
		return histogram.BuildFrequencyPolygon(samples, k, opts.DomainLo, opts.DomainHi)
	case Kernel:
		// One fit context serves the bandwidth rule (every DPI pilot, every
		// LSCV grid point) and the final estimator: the sample is
		// moment-indexed exactly once per build.
		ctx, err := kde.NewFitContextSorted(samples)
		if err != nil {
			return nil, err
		}
		h, err := kernelBandwidth(ctx, opts, method)
		if err != nil {
			return nil, err
		}
		return ctx.NewEstimator(kde.Config{
			Kernel:    opts.Kernel,
			Bandwidth: h,
			Boundary:  opts.Boundary,
			DomainLo:  opts.DomainLo,
			DomainHi:  opts.DomainHi,
		})
	case BetaKernel:
		// Same shared-context discipline as Kernel: one moment index
		// serves the closed-form rule and the estimator. The default rule
		// here is BetaClosedForm — the rule the method exists for.
		ctx, err := kde.NewFitContextSorted(samples)
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
		ctx, err := kde.NewFitContextSorted(samples)
		if err != nil {
			return nil, err
		}
		h, err := kernelBandwidth(ctx, opts, method)
		if err != nil {
			return nil, err
		}
		return kde.NewVariable(samples, kde.VariableConfig{
			Kernel:         opts.Kernel,
			PilotBandwidth: h,
			Reflect:        opts.Boundary != kde.BoundaryNone,
			DomainLo:       opts.DomainLo,
			DomainHi:       opts.DomainHi,
		})
	case Hybrid:
		return hybrid.New(samples, opts.DomainLo, opts.DomainHi, opts.HybridConfig)
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
	maxBins := opts.MaxBins
	if maxBins == 0 {
		maxBins = 8192
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
			width, err = bandwidth.DPIBinWidthContext(ctx, opts.dpiSteps(), opts.DomainLo, opts.DomainHi)
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
	k := opts.Kernel
	if k == nil {
		k = kernel.Epanechnikov{}
	}
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
		h, err = bandwidth.DPIBandwidthContext(ctx, k, opts.dpiSteps(), opts.DomainLo, opts.DomainHi)
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

// dpiSteps returns the DPI iteration count, defaulting to 2.
func (o Options) dpiSteps() int {
	if o.DPISteps == 0 {
		return 2
	}
	return o.DPISteps
}
