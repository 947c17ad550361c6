// Package selest is a library of selectivity estimators for range queries
// on metric attributes, reproducing Blohsfeld, Korus & Seeger, "A
// Comparison of Selectivity Estimators for Range Queries on Metric
// Attributes" (SIGMOD 1999).
//
// Given a small random sample of a relation's attribute values, the
// library estimates the selectivity of range queries Q(a,b) — the fraction
// of records with a <= value <= b — using any of the paper's nonparametric
// methods:
//
//   - kernel estimators (the paper's contribution): Epanechnikov-kernel
//     density estimation integrated over the query range, with reflection
//     or Simonoff–Dong boundary kernels repairing the domain boundaries;
//   - histograms: equi-width, equi-depth, max-diff, average shifted, the
//     one-bin uniform assumption, and a v-optimal extension;
//   - the paper's hybrid estimator: change-point-partitioned bins with a
//     local kernel estimator per bin;
//   - pure sampling as the baseline.
//
// Smoothing parameters (bin counts, bandwidths) default to the paper's
// normal scale rules and can instead use the direct plug-in rule or
// least-squares cross-validation.
//
// # Quick start
//
//	est, err := selest.Build(sampleValues, selest.Options{
//		Method:   selest.Kernel,
//		Boundary: selest.BoundaryKernels,
//		DomainLo: 0,
//		DomainHi: 1 << 20,
//	})
//	if err != nil { ... }
//	sel := est.Selectivity(1000, 5000) // estimated fraction of records
//	rows := sel * float64(tableSize)   // estimated result size
//
// See the examples directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the paper-reproduction harness.
package selest

import (
	"selest/internal/core"
	"selest/internal/kde"
	"selest/internal/robust"
)

// Estimator is a range-selectivity estimator. Selectivity returns the
// estimated fraction of records in [a, b], always within [0, 1].
type Estimator = core.Estimator

// Method selects an estimation technique; see the Method constants.
type Method = core.Method

// The estimation methods of the paper's comparison.
const (
	// Sampling estimates selectivity as the in-range fraction of the
	// sample — the consistent O(n^{-1/2}) baseline.
	Sampling = core.Sampling
	// Uniform is the one-bin uniform-assumption estimator (System R).
	Uniform = core.Uniform
	// EquiWidth is the equi-width histogram.
	EquiWidth = core.EquiWidth
	// EquiDepth is the equi-depth histogram.
	EquiDepth = core.EquiDepth
	// MaxDiff is the max-diff histogram of Poosala et al.
	MaxDiff = core.MaxDiff
	// VOptimal is the v-optimal histogram (extension baseline).
	VOptimal = core.VOptimal
	// EndBiased is the end-biased histogram (extension): exact buckets
	// for the most frequent values plus an equi-width rest.
	EndBiased = core.EndBiased
	// Wavelet is the Haar-wavelet synopsis estimator (extension, after
	// Matias/Vitter/Wang SIGMOD'98 — the paper's reference [4]).
	Wavelet = core.Wavelet
	// ASH is the average shifted histogram.
	ASH = core.ASH
	// FrequencyPolygon linearly interpolates an equi-width histogram's
	// bin densities (extension): no jump points, kernel-class convergence.
	FrequencyPolygon = core.FrequencyPolygon
	// Kernel is kernel selectivity estimation — the paper's contribution.
	Kernel = core.Kernel
	// BetaKernel is the renormalized Epanechnikov estimator on the bounded
	// domain (extension): closed-form bandwidth rules make its refits
	// sort-dominated.
	BetaKernel = core.BetaKernel
	// VariableKernel is sample-point adaptive kernel estimation
	// (extension): per-sample bandwidths shrink in dense regions and grow
	// in sparse ones.
	VariableKernel = core.VariableKernel
	// Hybrid is the paper's histogram/kernel hybrid estimator.
	Hybrid = core.Hybrid
)

// BandwidthRule selects how smoothing parameters are derived when not
// fixed explicitly.
type BandwidthRule = core.BandwidthRule

// The smoothing-parameter rules of paper §4.
const (
	// NormalScale approximates the optimal parameter via the Normal
	// reference distribution (the default).
	NormalScale = core.NormalScale
	// DPI is the iterative direct plug-in rule.
	DPI = core.DPI
	// LSCV is least-squares cross-validation (kernel bandwidths only).
	LSCV = core.LSCV
	// BetaClosedForm is the O(1) beta-reference plug-in (kernel bandwidths
	// only): no pilot cascade, no grid search.
	BetaClosedForm = core.BetaClosedForm
	// ExactMISE is the O(1) CDF-targeted closed-form selector (kernel
	// bandwidths only).
	ExactMISE = core.ExactMISE
)

// BoundaryMode selects the kernel boundary treatment.
type BoundaryMode = kde.BoundaryMode

// The kernel boundary treatments of paper §3.2.1.
const (
	// BoundaryNone applies no repair (high error near the boundaries).
	BoundaryNone = kde.BoundaryNone
	// BoundaryReflect mirrors boundary-adjacent samples into the domain.
	BoundaryReflect = kde.BoundaryReflect
	// BoundaryKernels uses the Simonoff–Dong boundary kernel family — the
	// paper's most accurate treatment.
	BoundaryKernels = kde.BoundaryKernels
)

// Options configures Build; see the field documentation in
// internal/core. The zero value plus a domain builds a kernel estimator
// with the normal scale rule. Options sets the method, the domain, the
// bin count or bandwidth or the rule that derives it, and the kernel
// boundary treatment; the rest is fixed at the paper's choices: the
// Epanechnikov kernel, two DPI steps and ten ASH shifts.
type Options = core.Options

// Build constructs an estimator from a sample set of attribute values.
// Samples are copied; the estimator is immutable and safe for concurrent
// use. A NaN or ±Inf sample is an error wrapping ErrBadOption.
// BuildRobust is the graceful-degradation counterpart, which drops them.
func Build(samples []float64, opts Options) (Estimator, error) {
	return core.Build(samples, opts)
}

// RobustReport describes how a robust build arrived at its estimator:
// the rung of the degradation ladder that serves, the failed attempts
// above it, and what input sanitization scrubbed.
type RobustReport = robust.Report

// RobustEstimator is the panic-safe serving wrapper returned by
// BuildRobust, exposing the build Report and a count of recovered
// query-time panics.
type RobustEstimator = robust.Estimator

// BuildRobust constructs an estimator through the graceful-degradation
// ladder: NaN/Inf samples are scrubbed, out-of-domain values clamped, a
// constant sample yields a point-mass estimator, and a fit failure in
// the requested method steps down Kernel(boundary kernels) → EquiDepth →
// Sampling → Uniform. The report records the rung used and every failed
// attempt. It fails only when the sample set has no finite values.
func BuildRobust(samples []float64, opts Options) (*RobustEstimator, *RobustReport, error) {
	return robust.Build(samples, opts)
}

// Methods lists every method Build accepts, in the paper's comparison
// order.
func Methods() []Method { return core.Methods() }
