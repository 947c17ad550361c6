// Package kde implements kernel selectivity estimation, the primary
// contribution of the paper: the selectivity of a range query Q(a,b) is
// estimated by integrating a kernel density estimate over [a,b]
// (paper eq. 6 and Algorithm 1), with optional boundary treatment by
// sample reflection or by Simonoff–Dong boundary kernels (paper §3.2.1).
//
// Evaluation uses the sorted-sample fast path the paper sketches: samples
// whose kernel lies entirely inside the query contribute exactly one and
// are counted by binary search; only the O(k) samples overlapping the query
// edges need explicit primitive evaluations, so a query costs
// O(log n + k) instead of Θ(n).
package kde

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"selest/internal/fsort"
	"selest/internal/kernel"
	"selest/internal/telemetry"
)

// BoundaryMode selects how estimation near the domain boundaries is
// repaired (paper §3.2.1).
type BoundaryMode int

const (
	// BoundaryNone applies no correction; estimates near the boundaries
	// lose mass outside the domain (the paper's Fig. 3 error spikes).
	BoundaryNone BoundaryMode = iota
	// BoundaryReflect mirrors samples within one bandwidth of a boundary
	// back into the domain. The estimate is a proper density but is not
	// consistent at the boundary.
	BoundaryReflect
	// BoundaryKernels replaces the kernel with the Simonoff–Dong boundary
	// family within one bandwidth of a boundary. The estimate is
	// consistent but may locally integrate to slightly more than one.
	// This mode requires the Epanechnikov kernel (the closed-form strip
	// primitive is specific to it), matching the paper.
	BoundaryKernels
)

// String implements fmt.Stringer.
func (m BoundaryMode) String() string {
	switch m {
	case BoundaryNone:
		return "none"
	case BoundaryReflect:
		return "reflect"
	case BoundaryKernels:
		return "boundary-kernels"
	default:
		return fmt.Sprintf("BoundaryMode(%d)", int(m))
	}
}

// ParseBoundaryMode resolves a boundary-treatment name as written on a
// command line: "none", "reflect", or "kernels"/"boundary-kernels"
// (case-insensitive, surrounding space ignored).
func ParseBoundaryMode(s string) (BoundaryMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return BoundaryNone, nil
	case "reflect":
		return BoundaryReflect, nil
	case "kernels", "boundary-kernels":
		return BoundaryKernels, nil
	default:
		return BoundaryNone, fmt.Errorf("kde: unknown boundary mode %q (valid: none, reflect, kernels)", s)
	}
}

// Config parameterises a kernel selectivity estimator.
type Config struct {
	// Kernel is the smoothing kernel; nil defaults to Epanechnikov.
	Kernel kernel.Kernel
	// Bandwidth is the smoothing parameter h; it must be positive.
	Bandwidth float64
	// Boundary selects the boundary treatment.
	Boundary BoundaryMode
	// DomainLo/DomainHi bound the attribute domain. They are required for
	// any boundary treatment; with BoundaryNone they may both be zero, in
	// which case the sample hull is used for density plotting only.
	DomainLo, DomainHi float64
}

// Estimator is a kernel selectivity estimator over a fixed sample set.
// It is immutable after construction and safe for concurrent use.
type Estimator struct {
	sorted []float64 // sorted samples
	n      int       // number of original samples (the divisor)
	h      float64
	k      kernel.Kernel
	mode   BoundaryMode
	lo, hi float64

	// reflected holds mirrored samples for BoundaryReflect, kept separate
	// from sorted so n stays the divisor and diagnostics can see both.
	reflected []float64

	// moments/reflMoments are the prefix-moment indexes (moments.go) that
	// answer Epanechnikov queries in O(log n) with no per-sample loop.
	// They are nil for other kernels or untrustworthy magnitudes, in which
	// case queries take the O(log n + k) edge-scan path. moments may be
	// shared with a FitContext (and its sibling estimators); reflMoments
	// and strips are bandwidth/domain-dependent and always owned.
	moments     *momentIndex
	reflMoments *momentIndex
	strips      *stripLogs
}

// New builds an estimator from a sample set (copied, then sorted by
// internal/fsort, the fit path's one sort). The sample set must be
// non-empty and the bandwidth positive. For boundary treatments the
// domain must be a proper interval containing the samples.
//
// Callers fitting many estimators over one sample set (bandwidth-rule
// iterations, grid searches, the hybrid per-bin fits) should sort once
// through NewFitContext and fit with FitContext.NewEstimator instead.
func New(samples []float64, cfg Config) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("kde: empty sample set")
	}
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	return newSorted(sorted, cfg, nil)
}

// newSorted builds an estimator over an already-sorted sample slice, which
// it aliases (the caller must not mutate it afterwards). shared, when
// non-nil, is a prefix-moment index over exactly that slice, reused
// instead of rebuilt.
func newSorted(sorted []float64, cfg Config, shared *momentIndex) (*Estimator, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("kde: empty sample set")
	}
	if cfg.Bandwidth <= 0 || math.IsNaN(cfg.Bandwidth) || math.IsInf(cfg.Bandwidth, 0) {
		return nil, fmt.Errorf("kde: bandwidth must be positive and finite, got %v", cfg.Bandwidth)
	}
	k := cfg.Kernel
	if k == nil {
		k = kernel.Epanechnikov{}
	}
	if cfg.Boundary == BoundaryKernels && k.Name() != (kernel.Epanechnikov{}).Name() {
		return nil, fmt.Errorf("kde: boundary kernels require the Epanechnikov kernel, got %s", k.Name())
	}
	e := &Estimator{
		sorted: sorted,
		n:      len(sorted),
		h:      cfg.Bandwidth,
		k:      k,
		mode:   cfg.Boundary,
		lo:     cfg.DomainLo,
		hi:     cfg.DomainHi,
	}
	if cfg.Boundary != BoundaryNone {
		if !(cfg.DomainLo < cfg.DomainHi) {
			return nil, fmt.Errorf("kde: boundary treatment needs a proper domain, got [%v, %v]", cfg.DomainLo, cfg.DomainHi)
		}
		if e.sorted[0] < cfg.DomainLo || e.sorted[len(e.sorted)-1] > cfg.DomainHi {
			return nil, fmt.Errorf("kde: samples fall outside the domain [%v, %v]", cfg.DomainLo, cfg.DomainHi)
		}
	}
	if cfg.Boundary == BoundaryReflect {
		e.buildReflection()
	}
	e.buildMoments(shared)
	return e, nil
}

// buildReflection mirrors the samples within kernel reach of each boundary.
// The two mirror sets are counted by binary search first so reflected is
// allocated exactly once at its final size. No sort is needed: left
// mirrors (2·lo − x, all ≤ lo) emitted in reverse sample order are
// ascending, right mirrors (2·hi − x, all ≥ hi) likewise, and every left
// mirror precedes every right mirror.
func (e *Estimator) buildReflection() {
	reach := e.h * e.k.Support()
	// Left mirrors: samples with x − lo < reach, i.e. x < lo + reach.
	nLeft := sort.SearchFloat64s(e.sorted, e.lo+reach)
	// Right mirrors: samples with hi − x < reach, i.e. x > hi − reach.
	firstRight := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > e.hi-reach })
	nRight := len(e.sorted) - firstRight
	if nLeft+nRight == 0 {
		return
	}
	e.reflected = make([]float64, 0, nLeft+nRight)
	for i := nLeft - 1; i >= 0; i-- {
		e.reflected = append(e.reflected, 2*e.lo-e.sorted[i])
	}
	for i := len(e.sorted) - 1; i >= firstRight; i-- {
		e.reflected = append(e.reflected, 2*e.hi-e.sorted[i])
	}
}

// buildMoments precomputes the prefix-moment indexes (moments.go), reusing
// a context-shared index over the sorted samples when one is supplied.
// Only the Epanechnikov kernel has the cubic primitive the closed form
// needs; newMomentIndex additionally refuses magnitudes it cannot sum
// safely.
func (e *Estimator) buildMoments(shared *momentIndex) {
	if _, ok := e.k.(kernel.Epanechnikov); !ok {
		return
	}
	if shared != nil {
		e.moments = shared
	} else {
		e.moments = newMomentIndex(e.sorted)
	}
	if e.moments == nil {
		return
	}
	if len(e.reflected) > 0 {
		e.reflMoments = newMomentIndex(e.reflected)
		if e.reflMoments == nil {
			// Keep the two evaluation paths consistent: all moments or none.
			e.moments = nil
			return
		}
	}
	if e.mode == BoundaryKernels {
		e.strips = newStripLogs(e.sorted, e.lo, e.hi, e.h)
	}
}

// Bandwidth returns the smoothing parameter h.
func (e *Estimator) Bandwidth() float64 { return e.h }

// Kernel returns the smoothing kernel.
func (e *Estimator) Kernel() kernel.Kernel { return e.k }

// SampleSize returns the number of (original) samples.
func (e *Estimator) SampleSize() int { return e.n }

// Name identifies the estimator in experiment output.
func (e *Estimator) Name() string {
	return "kernel(" + e.k.Name() + "," + e.mode.String() + ")"
}

// Selectivity returns the estimated selectivity σ̂(a,b) ∈ [0,1] of the
// range query Q(a,b). Inverted ranges yield 0.
func (e *Estimator) Selectivity(a, b float64) float64 {
	s := e.SelectivityUnclamped(a, b)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// SelectivityUnclamped is Selectivity without the final clamp to [0,1].
// Boundary-kernel estimates are consistent but not a density, so they can
// stray slightly outside [0,1]; callers that renormalise (e.g. the hybrid
// estimator conditioning each bin on its total mass) need the raw value —
// clamping first would silently destroy additivity.
func (e *Estimator) SelectivityUnclamped(a, b float64) float64 {
	return e.selectivityRaw(a, b, e.moments != nil)
}

// SelectivityEdgeScan evaluates the query through the O(log n + k)
// edge-scan path even when the prefix-moment index exists. It is the
// ablation baseline for the moment closed form (benches and the fuzz
// cross-check); production callers should use Selectivity.
func (e *Estimator) SelectivityEdgeScan(a, b float64) float64 {
	s := e.selectivityRaw(a, b, false)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// selectivityRaw dispatches a query to the prefix-moment path (O(log n),
// moments.go) or the edge-scan path (O(log n + k)).
func (e *Estimator) selectivityRaw(a, b float64, useMoments bool) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	if telemetry.Enabled() {
		kdeQueries.Inc()
		if useMoments {
			kdeMomentQueries.Inc()
		}
	}
	var s float64
	switch e.mode {
	case BoundaryKernels:
		s = e.selectivityBoundaryKernels(a, b, useMoments)
	case BoundaryReflect:
		// Clip to the domain: mirrored mass outside [lo,hi] belongs to the
		// boundary samples and must not be double-counted by a query that
		// (illegally) extends past the boundary.
		a = math.Max(a, e.lo)
		b = math.Min(b, e.hi)
		if b < a {
			return 0
		}
		if useMoments {
			s = e.momentTotal(b) - e.momentTotal(a)
		} else {
			s = e.sumRangeScan(e.sorted, a, b) + e.sumRangeScan(e.reflected, a, b)
		}
	default:
		if useMoments {
			s = e.moments.cdfSum(b, e.h) - e.moments.cdfSum(a, e.h)
		} else {
			s = e.sumRangeScan(e.sorted, a, b)
		}
	}
	return s / float64(e.n)
}

// momentTotal evaluates F(y) = Σ CDF((y−Xᵢ)/h) over the original and (for
// BoundaryReflect) mirrored samples through the moment indexes. Both the
// single-query and the batch path subtract two momentTotal values, so
// their results are bit-identical.
func (e *Estimator) momentTotal(y float64) float64 {
	s := e.moments.cdfSum(y, e.h)
	if e.reflMoments != nil {
		s += e.reflMoments.cdfSum(y, e.h)
	}
	return s
}

// sumRangeScan returns Σ_i [CDF((b−X_i)/h) − CDF((a−X_i)/h)] over the
// given sorted sample slice, using binary search to count full
// contributions and evaluating primitives only near the query edges. This
// is Algorithm 1 with the O(log n + k) refinement the paper describes; the
// prefix-moment path (moments.go) replaces it for the Epanechnikov kernel
// and remains its fallback for every other kernel.
func (e *Estimator) sumRangeScan(sorted []float64, a, b float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	reach := e.h * e.k.Support()

	// Samples in [a+reach, b−reach] contribute exactly 1.
	full := 0
	fullLo, fullHi := a+reach, b-reach
	var iLo, iHi int
	if fullHi >= fullLo {
		iLo = sort.SearchFloat64s(sorted, fullLo)
		iHi = sort.Search(len(sorted), func(i int) bool { return sorted[i] > fullHi })
		full = iHi - iLo
	} else {
		// Query narrower than the kernel: no full contributions; evaluate
		// everything within reach explicitly.
		iLo = sort.SearchFloat64s(sorted, a-reach)
		iHi = iLo
	}

	// Edge windows: left partial [a−reach, a+reach), right (b−reach, b+reach].
	lw := sort.SearchFloat64s(sorted, a-reach)
	rw := sort.Search(len(sorted), func(i int) bool { return sorted[i] > b+reach })
	sum := float64(full) +
		e.cdfDiffSum(sorted[lw:iLo], a, b) +
		e.cdfDiffSum(sorted[iHi:rw], a, b)
	if telemetry.Enabled() {
		kdeFastPathSamples.Add(int64(full))
		kdeEdgeEvals.Add(int64((iLo - lw) + (rw - iHi)))
	}
	return sum
}

// cdfDiffSum accumulates CDF((b−x)/h) − CDF((a−x)/h) over an edge window.
// The kernel is type-switched to the concrete Epanechnikov once, outside
// the loop, so the common case pays neither interface dispatch per sample
// nor two separate primitive evaluations (kernel.Epanechnikov.CDFDiff
// fuses them).
func (e *Estimator) cdfDiffSum(window []float64, a, b float64) float64 {
	sum := 0.0
	if ep, ok := e.k.(kernel.Epanechnikov); ok {
		for _, x := range window {
			sum += ep.CDFDiff((b-x)/e.h, (a-x)/e.h)
		}
		return sum
	}
	for _, x := range window {
		sum += e.k.CDF((b-x)/e.h) - e.k.CDF((a-x)/e.h)
	}
	return sum
}

// stripGeometry returns the interior bounds of the boundary-kernel strips;
// for domains narrower than 2h the strips meet in the middle instead of
// overlapping.
func (e *Estimator) stripGeometry() (leftEnd, rightStart float64) {
	mid := 0.5 * (e.lo + e.hi)
	return math.Min(e.lo+e.h, mid), math.Max(e.hi-e.h, mid)
}

// selectivityBoundaryKernels integrates the boundary-kernel density over
// [a,b]. The domain is split into the left strip [lo, lo+h], the interior,
// and the right strip [hi−h, hi]; inside the strips the Simonoff–Dong
// family applies with q sweeping 0→1 across the strip. With useMoments the
// strip sums take their closed forms (moments.go) instead of per-sample
// loops, keeping the whole query at O(log n).
func (e *Estimator) selectivityBoundaryKernels(a, b float64, useMoments bool) float64 {
	a = math.Max(a, e.lo)
	b = math.Min(b, e.hi)
	if b < a {
		return 0
	}
	leftEnd, rightStart := e.stripGeometry()

	sum := 0.0
	// Interior contribution via the ordinary kernel.
	if ia, ib := math.Max(a, leftEnd), math.Min(b, rightStart); ib > ia {
		if useMoments {
			sum += e.moments.cdfSum(ib, e.h) - e.moments.cdfSum(ia, e.h)
		} else {
			sum += e.sumRangeScan(e.sorted, ia, ib)
		}
	}
	// Left strip: u = (x−lo)/h ∈ [u1, u2], sample offset s = (X−lo)/h.
	if la, lb := a, math.Min(b, leftEnd); lb > la {
		u1, u2 := (la-e.lo)/e.h, (lb-e.lo)/e.h
		if useMoments {
			sum += e.stripSumMoment(u1, u2, true)
		} else {
			// Only samples within 2h of the boundary can contribute.
			limit := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > e.lo+2*e.h })
			for i := 0; i < limit; i++ {
				sum += kernel.BoundaryStripIntegral((e.sorted[i]-e.lo)/e.h, u1, u2)
			}
			if telemetry.Enabled() {
				kdeEdgeEvals.Add(int64(limit))
			}
		}
	}
	// Right strip: u = (hi−x)/h, s = (hi−X)/h; integration direction flips
	// but the integrand is the same strip integral by symmetry.
	if ra, rb := math.Max(a, rightStart), b; rb > ra {
		u1, u2 := (e.hi-rb)/e.h, (e.hi-ra)/e.h
		if useMoments {
			sum += e.stripSumMoment(u1, u2, false)
		} else {
			start := sort.SearchFloat64s(e.sorted, e.hi-2*e.h)
			for i := start; i < len(e.sorted); i++ {
				sum += kernel.BoundaryStripIntegral((e.hi-e.sorted[i])/e.h, u1, u2)
			}
			if telemetry.Enabled() {
				kdeEdgeEvals.Add(int64(len(e.sorted) - start))
			}
		}
	}
	return sum
}

// Density returns the estimated probability density f̂(x). For boundary
// modes, x outside [DomainLo, DomainHi] evaluates to 0.
func (e *Estimator) Density(x float64) float64 {
	switch e.mode {
	case BoundaryKernels:
		return e.densityBoundaryKernels(x)
	case BoundaryReflect:
		if x < e.lo || x > e.hi {
			return 0
		}
		return (e.sumDensity(e.sorted, x) + e.sumDensity(e.reflected, x)) / (float64(e.n) * e.h)
	default:
		return e.sumDensity(e.sorted, x) / (float64(e.n) * e.h)
	}
}

// sumDensity returns Σ_i K((x−X_i)/h) over samples within kernel reach,
// type-switching to the concrete Epanechnikov once outside the loop.
func (e *Estimator) sumDensity(sorted []float64, x float64) float64 {
	reach := e.h * e.k.Support()
	lo := sort.SearchFloat64s(sorted, x-reach)
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > x+reach })
	sum := 0.0
	if ep, ok := e.k.(kernel.Epanechnikov); ok {
		for i := lo; i < hi; i++ {
			sum += ep.Eval((x - sorted[i]) / e.h)
		}
		return sum
	}
	for i := lo; i < hi; i++ {
		sum += e.k.Eval((x - sorted[i]) / e.h)
	}
	return sum
}

// densityBoundaryKernels evaluates the position-dependent boundary-kernel
// density.
func (e *Estimator) densityBoundaryKernels(x float64) float64 {
	if x < e.lo || x > e.hi {
		return 0
	}
	mid := 0.5 * (e.lo + e.hi)
	leftEnd := math.Min(e.lo+e.h, mid)
	rightStart := math.Max(e.hi-e.h, mid)
	switch {
	case x < leftEnd:
		q := (x - e.lo) / e.h
		limit := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > e.lo+2*e.h })
		sum := 0.0
		for i := 0; i < limit; i++ {
			sum += kernel.BoundaryEval((x-e.sorted[i])/e.h, q)
		}
		return sum / (float64(e.n) * e.h)
	case x > rightStart:
		q := (e.hi - x) / e.h
		start := sort.SearchFloat64s(e.sorted, e.hi-2*e.h)
		sum := 0.0
		for i := start; i < len(e.sorted); i++ {
			sum += kernel.BoundaryEvalRight((x-e.sorted[i])/e.h, q)
		}
		return sum / (float64(e.n) * e.h)
	default:
		return e.sumDensity(e.sorted, x) / (float64(e.n) * e.h)
	}
}

// SelectivityLinear evaluates Algorithm 1 exactly as printed in the paper —
// a Θ(n) loop over all samples with no index acceleration. It exists for
// the ablation bench comparing the evaluation paths and for cross-checking
// the fast paths in tests. BoundaryKernels takes the analogous Θ(n) strip
// loops.
func (e *Estimator) SelectivityLinear(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	if e.mode == BoundaryKernels {
		return e.boundaryKernelsLinear(a, b)
	}
	if e.mode == BoundaryReflect {
		a = math.Max(a, e.lo)
		b = math.Min(b, e.hi)
		if b < a {
			return 0
		}
	}
	sum := 0.0
	for _, x := range e.sorted {
		sum += e.k.CDF((b-x)/e.h) - e.k.CDF((a-x)/e.h)
	}
	for _, x := range e.reflected {
		sum += e.k.CDF((b-x)/e.h) - e.k.CDF((a-x)/e.h)
	}
	s := sum / float64(e.n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// boundaryKernelsLinear is the Θ(n) reference evaluator for BoundaryKernels
// mode: plain loops over every sample for the interior primitive and both
// strip integrals, with no binary-search windowing and no moment closed
// forms. BoundaryStripIntegral clips itself to zero outside its support, so
// looping over the full sample set is safe.
func (e *Estimator) boundaryKernelsLinear(a, b float64) float64 {
	a = math.Max(a, e.lo)
	b = math.Min(b, e.hi)
	if b < a {
		return 0
	}
	leftEnd, rightStart := e.stripGeometry()
	sum := 0.0
	if ia, ib := math.Max(a, leftEnd), math.Min(b, rightStart); ib > ia {
		for _, x := range e.sorted {
			sum += e.k.CDF((ib-x)/e.h) - e.k.CDF((ia-x)/e.h)
		}
	}
	if la, lb := a, math.Min(b, leftEnd); lb > la {
		u1, u2 := (la-e.lo)/e.h, (lb-e.lo)/e.h
		for _, x := range e.sorted {
			sum += kernel.BoundaryStripIntegral((x-e.lo)/e.h, u1, u2)
		}
	}
	if ra, rb := math.Max(a, rightStart), b; rb > ra {
		u1, u2 := (e.hi-rb)/e.h, (e.hi-ra)/e.h
		for _, x := range e.sorted {
			sum += kernel.BoundaryStripIntegral((e.hi-x)/e.h, u1, u2)
		}
	}
	s := sum / float64(e.n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
