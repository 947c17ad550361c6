package kde

// The beta-kernel estimator: a boundary-bias-free kernel estimator on a
// bounded domain, built for the closed-form bandwidth engine (the
// beta-kernel selector literature — arXiv:2601.19553 — pairs an O(1)
// moment-based bandwidth with a kernel family whose shape adapts at the
// boundaries, so no pilot grids and no boundary-kernel strips are needed).
//
// Implementation: the domain [lo, hi] (defaulting to the sample hull, the
// normalized-[0,1] mapping of the paper applied at original scale) carries
// a cut-and-normalize Epanechnikov family,
//
//	f̂(x) = (1/nh) Σᵢ wᵢ·K((x − Xᵢ)/h),  wᵢ = 1/Mᵢ,
//	Mᵢ  = CDF((hi − Xᵢ)/h) − CDF((lo − Xᵢ)/h) ∈ [½, 1],
//
// restricted to x ∈ [lo, hi]: each sample's kernel is renormalised by the
// mass Mᵢ it keeps inside the domain, so the estimate integrates to
// exactly 1 over the domain — boundary bias is eliminated by construction
// rather than repaired by reflection or strip kernels. The bandwidth is
// clamped to span/2, which keeps the two boundary blocks (samples whose
// kernel spills over an edge, weight wᵢ ∈ (1, 2]) disjoint; every interior
// sample has weight exactly 1.
//
// Query path: the interior samples form one contiguous index range of the
// shared prefix-moment index (momentIndex.rangeCdfSum), and each boundary
// block carries its own small weighted moment index (wMomentIndex), so a
// range query is O(log n) with zero allocations — the same complexity as
// the plain kernel path, without its strip closed forms.

import (
	"fmt"
	"math"
	"sort"

	"selest/internal/kernel"
	"selest/internal/telemetry"
	"selest/internal/xmath"
)

// BetaConfig parameterises a beta-kernel estimator.
type BetaConfig struct {
	// Bandwidth is the smoothing parameter h; it must be positive and is
	// clamped to half the domain span (the cut-and-normalize family is
	// defined for kernels no wider than the domain).
	Bandwidth float64
	// DomainLo/DomainHi bound the attribute domain. Both zero defaults to
	// the sample hull [min, max] — the normalization interval of the
	// closed-form selector.
	DomainLo, DomainHi float64
}

// BetaEstimator is a beta-kernel selectivity estimator over a fixed
// sample set. It is immutable after construction and safe for concurrent
// use.
type BetaEstimator struct {
	sorted []float64
	n      int
	h      float64
	lo, hi float64
	point  bool // zero-span domain: a point mass at lo

	// moments is the shared prefix-moment index over all samples
	// (possibly context-shared); nil for untrustworthy magnitudes, in
	// which case queries take the Θ(n) weighted scan.
	moments *momentIndex
	// iL/iR delimit the boundary blocks: left block [0, iL) (x < lo+h),
	// right block [iR, n) (x > hi−h). Interior samples [iL, iR) have
	// weight exactly 1.
	iL, iR int
	// left/right are the weighted moment indexes of the boundary blocks
	// (nil when the block is empty or moments is nil).
	left, right *wMomentIndex
	// wl/wr are the per-sample block weights, kept for the linear
	// reference path and the moment-free fallback.
	wl, wr []float64
}

// newBetaSorted builds the estimator over an already-sorted slice, which
// it aliases. shared, when non-nil, is a prefix-moment index over exactly
// that slice.
func newBetaSorted(sorted []float64, cfg BetaConfig, shared *momentIndex) (*BetaEstimator, error) {
	n := len(sorted)
	if n == 0 {
		return nil, fmt.Errorf("kde: empty sample set")
	}
	lo, hi := cfg.DomainLo, cfg.DomainHi
	if lo == 0 && hi == 0 {
		lo, hi = sorted[0], sorted[n-1]
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi < lo {
		return nil, fmt.Errorf("kde: beta estimator needs a finite domain, got [%v, %v]", lo, hi)
	}
	if !(sorted[0] >= lo) || !(sorted[n-1] <= hi) {
		return nil, fmt.Errorf("kde: samples fall outside the domain [%v, %v]", lo, hi)
	}
	e := &BetaEstimator{sorted: sorted, n: n, lo: lo, hi: hi}
	span := hi - lo
	if span == 0 {
		// Constant data under a defaulted (or explicit zero-width) domain:
		// a point mass at lo. No bandwidth applies.
		e.point = true
		return e, nil
	}
	h := cfg.Bandwidth
	if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("kde: bandwidth must be positive and finite, got %v", cfg.Bandwidth)
	}
	if h > span/2 {
		h = span / 2
	}
	e.h = h

	e.moments = shared
	if e.moments == nil {
		e.moments = newMomentIndex(sorted)
	}
	if e.moments != nil {
		// Interior NaN poisons the prefix totals without tripping
		// newMomentIndex's endpoint checks; refuse it in O(1) here.
		if math.IsNaN(e.moments.totals().s3.val()) {
			return nil, fmt.Errorf("kde: beta estimator needs finite samples")
		}
	} else {
		for _, x := range sorted {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("kde: beta estimator needs finite samples")
			}
		}
	}

	// Boundary blocks: samples whose kernel spills over a domain edge.
	// h ≤ span/2 keeps lo+h ≤ hi−h, so the blocks are disjoint (up to one
	// ulp of threshold rounding, collapsed below).
	e.iL = sort.SearchFloat64s(sorted, lo+h)
	e.iR = sort.Search(n, func(i int) bool { return sorted[i] > hi-h })
	if e.iR < e.iL {
		e.iR = e.iL
	}
	e.wl = betaWeights(sorted[:e.iL], lo, hi, h)
	e.wr = betaWeights(sorted[e.iR:], lo, hi, h)
	if e.moments != nil {
		e.left = newWMomentIndex(sorted[:e.iL], e.wl, e.moments.c)
		e.right = newWMomentIndex(sorted[e.iR:], e.wr, e.moments.c)
	}
	return e, nil
}

// betaWeights returns the cut-and-normalize weights wᵢ = 1/Mᵢ for one
// boundary block. With h ≤ span/2 the inside-domain mass Mᵢ is at least ½
// (a sample exactly on an edge keeps half its kernel), so wᵢ ∈ [1, 2].
func betaWeights(block []float64, lo, hi, h float64) []float64 {
	if len(block) == 0 {
		return nil
	}
	ep := kernel.Epanechnikov{}
	ws := make([]float64, len(block))
	for i, x := range block {
		ws[i] = 1 / ep.CDFDiff((hi-x)/h, (lo-x)/h)
	}
	return ws
}

// Bandwidth returns the (possibly span-clamped) smoothing parameter h.
func (e *BetaEstimator) Bandwidth() float64 { return e.h }

// SampleSize returns the number of samples.
func (e *BetaEstimator) SampleSize() int { return e.n }

// Domain returns the estimation domain [lo, hi].
func (e *BetaEstimator) Domain() (lo, hi float64) { return e.lo, e.hi }

// Name identifies the estimator in experiment output.
func (e *BetaEstimator) Name() string { return "beta-kernel(epanechnikov)" }

// Selectivity returns the estimated selectivity σ̂(a,b) ∈ [0,1] of the
// range query Q(a,b). Inverted ranges and NaN bounds yield 0.
func (e *BetaEstimator) Selectivity(a, b float64) float64 {
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
// The beta-kernel estimate is a proper density over the domain, so the
// raw value only strays outside [0,1] by floating-point rounding; the
// unclamped form exists for mass-accounting tests and renormalising
// callers.
func (e *BetaEstimator) SelectivityUnclamped(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	if telemetry.Enabled() {
		kdeQueries.Inc()
		if e.moments != nil {
			kdeMomentQueries.Inc()
		}
	}
	if e.point {
		if a <= e.lo && b >= e.lo {
			return 1
		}
		return 0
	}
	a = math.Max(a, e.lo)
	b = math.Min(b, e.hi)
	if b < a {
		return 0
	}
	if e.moments != nil {
		return (e.cdfAt(b) - e.cdfAt(a)) / float64(e.n)
	}
	return (e.cdfLinear(b) - e.cdfLinear(a)) / float64(e.n)
}

// cdfAt returns F(y) = Σᵢ wᵢ·CDF((y − Xᵢ)/h) through the moment indexes:
// the interior range of the shared index plus the two weighted blocks.
func (e *BetaEstimator) cdfAt(y float64) float64 {
	s := e.moments.rangeCdfSum(e.iL, e.iR, y, e.h)
	if e.left != nil {
		s += e.left.cdfSum(y, e.h)
	}
	if e.right != nil {
		s += e.right.cdfSum(y, e.h)
	}
	return s
}

// cdfLinear is the Θ(n) reference for cdfAt: an explicit loop over every
// sample with per-sample weights. It is the evaluation path when the
// moment index is unavailable and the reference the property tests
// compare the closed forms against.
func (e *BetaEstimator) cdfLinear(y float64) float64 {
	ep := kernel.Epanechnikov{}
	sum := 0.0
	for i, x := range e.sorted {
		c := ep.CDF((y - x) / e.h)
		if c == 0 {
			continue
		}
		w := 1.0
		if i < e.iL {
			w = e.wl[i]
		} else if i >= e.iR {
			w = e.wr[i-e.iR]
		}
		sum += w * c
	}
	return sum
}

// SelectivityLinear evaluates the query through the Θ(n) reference path
// even when the moment index exists — the cross-check for tests and the
// ablation baseline.
func (e *BetaEstimator) SelectivityLinear(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	if e.point {
		if a <= e.lo && b >= e.lo {
			return 1
		}
		return 0
	}
	a = math.Max(a, e.lo)
	b = math.Min(b, e.hi)
	if b < a {
		return 0
	}
	s := (e.cdfLinear(b) - e.cdfLinear(a)) / float64(e.n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Density returns the estimated probability density f̂(x); x outside the
// domain evaluates to 0. The point-mass degenerate mode has no density.
func (e *BetaEstimator) Density(x float64) float64 {
	if e.point || math.IsNaN(x) || x < e.lo || x > e.hi {
		return 0
	}
	var s float64
	if e.moments != nil {
		wl, wr := e.moments.window(x, e.h)
		if wl < e.iL {
			wl = e.iL
		}
		if wr > e.iR {
			wr = e.iR
		}
		if wr > wl {
			s = e.moments.densitySum(wl, wr, x, e.h)
		}
		if e.left != nil {
			s += e.left.densityAt(x, e.h)
		}
		if e.right != nil {
			s += e.right.densityAt(x, e.h)
		}
	} else {
		s = e.densityLinear(x)
	}
	return s / (float64(e.n) * e.h)
}

// densityLinear is the Θ(n) weighted density scan.
func (e *BetaEstimator) densityLinear(x float64) float64 {
	ep := kernel.Epanechnikov{}
	sum := 0.0
	for i, xi := range e.sorted {
		k := ep.Eval((x - xi) / e.h)
		if k == 0 {
			continue
		}
		w := 1.0
		if i < e.iL {
			w = e.wl[i]
		} else if i >= e.iR {
			w = e.wr[i-e.iR]
		}
		sum += w * k
	}
	return sum
}

// DensityGrid evaluates the density over an m-point uniform grid on
// [lo, hi]. Each point is one O(log n) closed-form evaluation; unlike the
// plain kernel path the beta path has no pilot sweeps (its selectors are
// closed-form), so no monotone-cursor batching is needed here.
func (e *BetaEstimator) DensityGrid(lo, hi float64, m int) []float64 {
	xs := xmath.Linspace(lo, hi, m)
	out := make([]float64, len(xs))
	if telemetry.Enabled() {
		fitGridEvals.Add(int64(len(xs)))
	}
	for i, x := range xs {
		out[i] = e.Density(x)
	}
	return out
}

// ---------------------------------------------------------------------------
// Weighted boundary-block moment index.

// wMomentIndex holds weighted, centered, compensated prefix moments over
// one boundary block: p0..p3 are prefix sums of wᵢ·(Xᵢ−c)^k, sharing the
// main index's centering constant c. The closed forms mirror momentIndex
// with the in-window weight total W (from p0) replacing the sample count:
//
//	Σ wᵢ·CDF(uᵢ) = ½W + ¾Σwᵢuᵢ − ¼Σwᵢuᵢ³
//	Σ wᵢ·K(uᵢ)   = ¾(W − Σwᵢuᵢ²)
//
// Blocks hold O(n·h/span) samples, so the extra prefix arrays cost a few
// percent of the main index.
type wMomentIndex struct {
	xs             []float64
	c              float64
	p0, p1, p2, p3 []dd
}

// newWMomentIndex builds the block index; nil for an empty block.
func newWMomentIndex(xs, ws []float64, c float64) *wMomentIndex {
	n := len(xs)
	if n == 0 {
		return nil
	}
	b := &wMomentIndex{
		xs: xs, c: c,
		p0: make([]dd, n+1), p1: make([]dd, n+1),
		p2: make([]dd, n+1), p3: make([]dd, n+1),
	}
	var s0, s1, s2, s3 dd
	for i, x := range xs {
		w := ws[i]
		y := twoDiff(x, c) // exact
		y2 := y.mul(y)
		s0 = s0.add(dd{w, 0})
		s1 = s1.add(y.mulF(w))
		s2 = s2.add(y2.mulF(w))
		s3 = s3.add(y2.mul(y).mulF(w))
		b.p0[i+1] = s0
		b.p1[i+1] = s1
		b.p2[i+1] = s2
		b.p3[i+1] = s3
	}
	return b
}

// cdfSum returns Σᵢ wᵢ·CDF((y − Xᵢ)/h) over the whole block in
// O(log block): full contributors below the kernel window count their
// weight, the in-window remainder takes the weighted closed form.
func (b *wMomentIndex) cdfSum(y, h float64) float64 {
	xs := b.xs
	l := sort.SearchFloat64s(xs, y-h)
	r := sort.Search(len(xs), func(i int) bool { return xs[i] > y+h })
	s := b.p0[l].val()
	if r > l {
		s += b.momentCdf(l, r, y, h)
	}
	return s
}

// momentCdf is the weighted in-window closed form over block range [l, r).
func (b *wMomentIndex) momentCdf(l, r int, y, h float64) float64 {
	w := b.p0[r].sub(b.p0[l])
	s1 := b.p1[r].sub(b.p1[l])
	s2 := b.p2[r].sub(b.p2[l])
	s3 := b.p3[r].sub(b.p3[l])
	z := twoDiff(y, b.c)
	// Σwu = (W·z − S1)/h.
	sumU := z.mul(w).sub(s1)
	// Σwu³ = (W·z³ − 3z²·S1 + 3z·S2 − S3)/h³.
	z2 := z.mul(z)
	sumU3 := z2.mul(z).mul(w).
		sub(z2.mul(s1).mulF(3)).
		add(z.mul(s2).mulF(3)).
		sub(s3)
	ih := 1 / h
	return 0.5*w.val() + 0.25*ih*(3*sumU.val()-sumU3.val()*ih*ih)
}

// densityAt returns Σᵢ wᵢ·K((x − Xᵢ)/h) over the block.
func (b *wMomentIndex) densityAt(x, h float64) float64 {
	xs := b.xs
	l := sort.SearchFloat64s(xs, x-h)
	r := sort.Search(len(xs), func(i int) bool { return xs[i] > x+h })
	if r <= l {
		return 0
	}
	w := b.p0[r].sub(b.p0[l])
	s1 := b.p1[r].sub(b.p1[l])
	s2 := b.p2[r].sub(b.p2[l])
	z := twoDiff(x, b.c)
	// Σw(x−Xᵢ)² = W·z² − 2z·S1 + S2.
	q := z.mul(z).mul(w).sub(z.mul(s1).mulF(2)).add(s2)
	ih := 1 / h
	return 0.75 * (w.val() - q.val()*ih*ih)
}
