package kde

// This file implements the prefix-moment evaluation path: for the
// Epanechnikov kernel the primitive is the cubic polynomial
//
//	CDF(t) = ½ + ¼(3t − t³),  t ∈ [−1, 1]
//
// so the edge sum Σᵢ CDF((y − Xᵢ)/h) over any contiguous sorted-index
// range collapses to a closed form in the prefix moments Σ1, ΣXᵢ, ΣXᵢ²,
// ΣXᵢ³: with u_i = (y − Xᵢ)/h and m samples in the window,
//
//	Σ u_i  = (m·y − ΣXᵢ)/h
//	Σ u_i³ = (m·y³ − 3y²·ΣXᵢ + 3y·ΣXᵢ² − ΣXᵢ³)/h³
//
// which turns a range-selectivity query into a handful of binary searches
// and a bounded amount of arithmetic — O(log n) regardless of how many
// samples the query edges overlap. This is the same precomputation trick
// the GENHIST/STHoles-era summaries use to make query time independent
// of n.
//
// Layout: the index stores the prefix moments only at every blockSize-th
// sample, as one array of interleaved {Σ(X−c), Σ(X−c)², Σ(X−c)³} entries
// (6 bytes per sample instead of 48 for per-sample prefixes). A query
// window [l, r) takes the closed form over its whole blocks and sums the
// at most blockSize−1 samples of each partial end block term by term:
// each adds its kernel term's (y − X) and (y − X)³. Those samples sit
// next to the binary searches' last probes, so they cost a few flops on
// cached lines, where per-sample prefixes cost cache misses. densitySum,
// whose densities become the fit path's discrete choices, instead
// rebuilds the exact per-sample prefix at each window end.
//
// Numerics: the naive expansion is catastrophically cancellative on wide
// integer domains — for X ~ 2^p the terms are of order m·X³ while the
// result is of order m·h³. Two defences are layered here:
//
//  1. Centering: moments are taken of y = X − c with c the midpoint of the
//     sample hull, halving the magnitude of every power.
//  2. Compensation: prefix sums are accumulated and combined in
//     double-double ("twofloat") arithmetic built from error-free
//     transforms (Knuth two-sum, FMA two-product). Each prefix entry
//     carries a Kahan-style compensation limb, so range differences and
//     the polynomial recombination retain ~106 bits through the
//     cancellation, leaving ≪1e−9 absolute error on the selectivity even
//     at n = 10⁶ on [0, 2^31) domains.
//
// The term-by-term partial blocks need neither defence: a sample inside
// the window has |y − X| ≤ h, so at most 2(blockSize−1) float64 terms
// add ~1e−15 to a sum of up to n once scaled by 1/h and 1/h³.
//
// Magnitudes whose cubes would overflow float64 (or NaN inputs) disable
// the index at construction; the estimator then falls back to the
// edge-scan path, so correctness never depends on the moment form.

import (
	"math"
	"sort"
)

// ---------------------------------------------------------------------------
// Double-double helpers (error-free transforms).

// dd is an unevaluated sum hi + lo with |lo| ≤ ½ulp(hi): a ~106-bit float.
type dd struct{ hi, lo float64 }

// twoSum returns a + b exactly as a dd (Knuth's branch-free TwoSum).
func twoSum(a, b float64) dd {
	s := a + b
	bb := s - a
	return dd{s, (a - (s - bb)) + (b - bb)}
}

// twoDiff returns a − b exactly as a dd.
func twoDiff(a, b float64) dd {
	s := a - b
	bb := s - a
	return dd{s, (a - (s - bb)) - (b + bb)}
}

// fastTwoSum renormalises a + b assuming |a| ≥ |b| (or a == 0 ⇒ b == 0).
func fastTwoSum(a, b float64) dd {
	s := a + b
	return dd{s, b - (s - a)}
}

// add returns x + y in dd arithmetic.
func (x dd) add(y dd) dd {
	s := twoSum(x.hi, y.hi)
	return fastTwoSum(s.hi, s.lo+x.lo+y.lo)
}

// sub returns x − y in dd arithmetic.
func (x dd) sub(y dd) dd { return x.add(dd{-y.hi, -y.lo}) }

// mul returns x · y in dd arithmetic, using FMA for the exact product.
func (x dd) mul(y dd) dd {
	p := x.hi * y.hi
	e := math.FMA(x.hi, y.hi, -p)
	e += x.hi*y.lo + x.lo*y.hi
	return fastTwoSum(p, e)
}

// mulF returns x · b for a plain float64 b.
func (x dd) mulF(b float64) dd {
	p := x.hi * b
	e := math.FMA(x.hi, b, -p)
	e += x.lo * b
	return fastTwoSum(p, e)
}

// val rounds the dd to the nearest float64.
func (x dd) val() float64 { return x.hi + x.lo }

// ---------------------------------------------------------------------------
// The moment index.

// maxMomentMagnitude bounds |X − c| so that n·|X−c|³ stays far from
// overflow (1e90³·1e9 ≈ 1e279 < MaxFloat64).
const maxMomentMagnitude = 1e90

// blockShift sets the index's block size: one prefix entry per
// blockSize samples. Eight samples fill one 64-byte cache line, so a
// partial end block costs at most one line beyond the binary search's
// last probe.
const (
	blockShift = 3
	blockSize  = 1 << blockShift
)

// moments3 is one prefix entry: the centered sums Σ(X−c), Σ(X−c)²,
// Σ(X−c)³ over a sample prefix. The count Σ1 is the prefix length itself
// (the samples are unweighted).
type moments3 struct{ s1, s2, s3 dd }

// momentIndex holds centered, compensated block-prefix moments over one
// sorted sample slice, answering Σᵢ CDF_epa((y − Xᵢ)/h) over all samples
// in O(log n). It is immutable after construction and therefore safe to
// share: a FitContext builds one index per sample set and every estimator
// fitted from that context aliases it. Domain-dependent state (the
// boundary-strip log prefixes) lives in the per-estimator stripLogs.
type momentIndex struct {
	xs []float64 // the sorted samples (aliased, not owned)
	c  float64   // centering constant: midpoint of the sample hull
	// blocks[j] holds the moments of xs[:min(j·blockSize, n)], for
	// j = 0..⌈n/blockSize⌉: a prefix at every block boundary, and the
	// last entry always covers all n samples (totals).
	blocks []moments3
}

// wholeBlocks returns the block-aligned part [L, R) of the index range
// [l, r), so that [l, L) and [R, r) are the partial end blocks summed
// term by term. A range that covers no whole block returns [r, r): all
// of it is summed term by term, at most 2(blockSize−1) samples.
func wholeBlocks(l, r int) (L, R int) {
	L = (l + blockSize - 1) &^ (blockSize - 1)
	R = r &^ (blockSize - 1)
	if L >= R {
		return r, r
	}
	return L, R
}

// span returns the moments of the whole blocks xs[L:R]; L and R must be
// block boundaries (wholeBlocks' result).
func (m *momentIndex) span(L, R int) (s1, s2, s3 dd) {
	a, b := &m.blocks[L>>blockShift], &m.blocks[R>>blockShift]
	return b.s1.sub(a.s1), b.s2.sub(a.s2), b.s3.sub(a.s3)
}

// totals returns the moments over every sample.
func (m *momentIndex) totals() *moments3 { return &m.blocks[len(m.blocks)-1] }

// prefix2 returns Σ(X−c) and Σ(X−c)² over xs[:i] exactly as a
// per-sample prefix array would hold them: the block entry at or below i,
// carried over the rest of its block by the build's accumulation step.
func (m *momentIndex) prefix2(i int) (s1, s2 dd) {
	b := &m.blocks[i>>blockShift]
	s1, s2 = b.s1, b.s2
	for _, x := range m.xs[i&^(blockSize-1) : i] {
		y := twoDiff(x, m.c)
		s1 = s1.add(y)
		s2 = s2.add(y.mul(y))
	}
	return s1, s2
}

// stripLogs holds the boundary-strip log prefixes for one (domain,
// sample-set) pair, built only for BoundaryKernels mode: the strip closed
// form needs Σ ln s over the samples whose strip integral is clipped at
// v = s, and those lie within 2h of their boundary (s < 2). So lnLo
// prefix-sums ln(x − lo) over the left reach only — the samples with
// x ≤ lo + 2h, indices [0, len(lnLo)−1) — and lnHi prefix-sums ln(hi − x)
// over the right reach only — the samples with x ≥ hi − 2h, indices
// [hiStart, n) — which is the reach the edge-scan path walks. Entries for
// x ≤ lo (resp. x ≥ hi) add 0: such samples never fall inside a clipped
// group, so the substitution never reaches a range sum. The prefixes
// depend on the estimator's domain and bandwidth, so they are owned by
// the Estimator rather than the (shareable) momentIndex.
type stripLogs struct {
	lnLo, lnHi []dd
	hiStart    int // sorted index of lnHi[0]
}

// newMomentIndex builds the index, or returns nil when the closed form
// cannot be trusted: empty input, NaN/±Inf samples, or magnitudes whose
// cubes approach overflow.
func newMomentIndex(xs []float64) *momentIndex {
	n := len(xs)
	if n == 0 {
		return nil
	}
	c := 0.5*xs[0] + 0.5*xs[n-1]
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return nil
	}
	if math.Max(math.Abs(xs[0]-c), math.Abs(xs[n-1]-c)) > maxMomentMagnitude {
		return nil
	}
	nb := (n + blockSize - 1) >> blockShift
	m := &momentIndex{xs: xs, c: c, blocks: make([]moments3, nb+1)}
	var s1, s2, s3 dd
	for j := range nb {
		m.blocks[j] = moments3{s1, s2, s3}
		for _, x := range xs[j<<blockShift : min((j+1)<<blockShift, n)] {
			// prefix2 repeats this step, so its prefixes are bit-identical
			// to the ones this loop passes through.
			y := twoDiff(x, c) // exact
			y2 := y.mul(y)
			s1 = s1.add(y)
			s2 = s2.add(y2)
			s3 = s3.add(y2.mul(y))
		}
	}
	m.blocks[nb] = moments3{s1, s2, s3}
	return m
}

// newStripLogs builds the boundary-strip log prefixes for the domain
// [lo, hi] and bandwidth h over the sorted samples (BoundaryKernels mode
// only). It takes one logarithm per sample within reach of a boundary,
// not two per sample: the interior between the reaches never enters a
// strip sum.
func newStripLogs(xs []float64, lo, hi, h float64) *stripLogs {
	loEnd := sort.Search(len(xs), func(i int) bool { return xs[i] > lo+2*h })
	hiStart := sort.SearchFloat64s(xs, hi-2*h)
	s := &stripLogs{
		lnLo:    make([]dd, loEnd+1),
		lnHi:    make([]dd, len(xs)-hiStart+1),
		hiStart: hiStart,
	}
	var sum dd
	for i, x := range xs[:loEnd] {
		if x > lo {
			sum = sum.add(dd{math.Log(x - lo), 0})
		}
		s.lnLo[i+1] = sum
	}
	sum = dd{}
	for i, x := range xs[hiStart:] {
		if x < hi {
			sum = sum.add(dd{math.Log(hi - x), 0})
		}
		s.lnHi[i+1] = sum
	}
	return s
}

// window returns the index range [l, r) of samples inside the kernel
// window (y−h, y+h]... more precisely l is the first index with x ≥ y−h
// and r the first with x > y+h, so [0, l) are full contributors (u ≥ 1,
// CDF = 1) and [r, n) contribute nothing (u ≤ −1). Samples exactly at the
// window edges land in the window, where the cubic evaluates to exactly 0
// or 1 — both decompositions agree.
func (m *momentIndex) window(y, h float64) (l, r int) {
	xs := m.xs
	l = sort.SearchFloat64s(xs, y-h)
	r = sort.Search(len(xs), func(i int) bool { return xs[i] > y+h })
	return l, r
}

// cdfSum returns F(y) = Σᵢ CDF((y − Xᵢ)/h) over every sample, in O(log n).
// A range query is then F(b) − F(a).
func (m *momentIndex) cdfSum(y, h float64) float64 {
	l, r := m.window(y, h)
	return m.windowSum(l, r, y, h)
}

// windowSum evaluates F(y) given the precomputed window [l, r): the l full
// contributors below the window plus the in-window sum.
func (m *momentIndex) windowSum(l, r int, y, h float64) float64 {
	return float64(l) + m.momentCdf(l, r, y, h)
}

// momentCdf evaluates the in-window part of the CDF sum over [l, r).
// Callers must guarantee every sample in [l, r) lies inside the kernel
// window of (y, h), so each sample adds the cubic ½ + ¼(3u − u³) with
// u = (y − X)/h: the whole blocks' Σ(y−X) and Σ(y−X)³ come from the
// moment closed form, and the partial end blocks add theirs term by term.
func (m *momentIndex) momentCdf(l, r int, y, h float64) float64 {
	L, R := wholeBlocks(l, r)
	var d1, d3 float64 // Σ(y−X), Σ(y−X)³
	if L < R {
		// The block entries are the likeliest cache misses: reading them
		// before the partial blocks' loops overlaps the two.
		kf := float64(R - L)
		s1, s2, s3 := m.span(L, R)
		z := twoDiff(y, m.c)
		// Σ(y−X) = k·z − S1.
		d1 = z.mulF(kf).sub(s1).val()
		// Σ(y−X)³ = k·z³ − 3z²·S1 + 3z·S2 − S3.
		z2 := z.mul(z)
		d3 = z2.mul(z).mulF(kf).
			sub(z2.mul(s1).mulF(3)).
			add(z.mul(s2).mulF(3)).
			sub(s3).val()
	}
	for _, x := range m.xs[l:L] {
		d := y - x
		d1 += d
		d3 += d * d * d
	}
	for _, x := range m.xs[R:r] {
		d := y - x
		d1 += d
		d3 += d * d * d
	}
	ih := 1 / h
	// Σ CDF(u) = k/2 + ¾Σu − ¼Σu³.
	return 0.5*float64(r-l) + 0.25*ih*(3*d1-d3*ih*ih)
}

// rangeCdfSum returns Σᵢ CDF((y − Xᵢ)/h) over the sorted-index range
// [lo, hi) only, in O(log n): the kernel window is clipped to the range,
// samples of the range below the window count 1 each (u ≥ 1), samples
// above it count 0, and the in-window remainder takes the moment closed
// form. This is the building block of the beta-kernel estimator, whose
// interior samples form one contiguous index range between the two
// weighted boundary blocks.
func (m *momentIndex) rangeCdfSum(lo, hi int, y, h float64) float64 {
	if hi <= lo {
		return 0
	}
	wl, wr := m.window(y, h)
	if wl > hi {
		wl = hi
	}
	if wl < lo {
		wl = lo
	}
	if wr > hi {
		wr = hi
	}
	s := float64(wl - lo)
	if wr > wl {
		s += m.momentCdf(wl, wr, y, h)
	}
	return s
}

// densitySum evaluates Σᵢ K((x − Xᵢ)/h) over the window [l, r) through
// the centered prefix moments: for the Epanechnikov kernel
//
//	Σ K(uᵢ) = ¾·(k − Σuᵢ²),  Σuᵢ² = (k·z² − 2z·S1 + S2)/h²,  z = x − c,
//
// so one density evaluation is O(1) once the window is known. This is the
// closed form behind DensityGrid: a pilot-density sweep over m grid points
// costs O(m) closed-form evaluations plus monotone cursor advances instead
// of m independent O(log n + k) edge scans.
//
// Unlike the query sums, densitySum rebuilds the exact prefixes at both
// window ends, so its answers are bit-identical to a per-sample prefix
// index. Its callers turn densities into discrete choices — the DPI
// pilots' bandwidth, the hybrid's change points, which rank grid points
// whose |f̂”| ties to the last few bits on locally quadratic stretches —
// and a fit should not move with the index layout.
func (m *momentIndex) densitySum(l, r int, x, h float64) float64 {
	k := r - l
	if k == 0 {
		return 0
	}
	kf := float64(k)
	l1, l2 := m.prefix2(l)
	r1, r2 := m.prefix2(r)
	s1, s2 := r1.sub(l1), r2.sub(l2)
	z := twoDiff(x, m.c)
	// Σ(x − Xᵢ)² = k·z² − 2z·S1 + S2.
	q := z.mul(z).mulF(kf).sub(z.mul(s1).mulF(2)).add(s2)
	ih := 1 / h
	return 0.75 * (kf - q.val()*ih*ih)
}

// ---------------------------------------------------------------------------
// Boundary-strip closed forms.
//
// The Simonoff–Dong strip contribution of one sample (kernel.
// BoundaryStripIntegral) is G(v₂; s) − G(v₁(s); s) with
//
//	G(v; s) = −3 ln v − (6 + 12s)/v + (6s + 3s²)/v²
//
// where v₂ = 1 + min(u₂, 1) is sample-independent while the lower limit
// clips at v₁ = 1 + max(u₁, 0, s−1). Splitting the samples at
// s* = 1 + max(u₁, 0) gives two groups:
//
//	group A (s ≤ s*): lower limit 1 + max(u₁,0) — G is a degree-2
//	  polynomial in s, so ΣG collapses to the moment form;
//	group B (s* < s < 1 + min(u₂,1)): lower limit v = s, where
//	  G(s; s) = −3 ln s − 9 — Σ ln s comes from the log prefixes.
//
// Samples with s ≥ 1 + min(u₂,1) contribute zero and are excluded by the
// binary searches. Both groups are contiguous index ranges because s is
// monotone in the sorted order (increasing from the left boundary,
// decreasing from the right).

// stripGSum returns Σ G(v; sᵢ) over index range [l, r), where
// sᵢ = (Xᵢ − lo)/h when left, (hi − Xᵢ)/h otherwise. G is a polynomial in
// s, so the range needs only the offset sums Σ(X−lo) and Σ(X−lo)²
// (mirrored on the right): from the block moments over the whole blocks,
// and term by term over the partial end blocks.
func (e *Estimator) stripGSum(m *momentIndex, l, r int, v float64, left bool) float64 {
	k := r - l
	if k <= 0 {
		return 0
	}
	L, R := wholeBlocks(l, r)
	var p1, p2 float64 // Σ offset, Σ offset²
	if L < R {
		kf := float64(R - L)
		s1, s2, _ := m.span(L, R)
		// Unscaled offset sums T1 = Σ(X−lo), T2 = Σ(X−lo)² (mirrored for
		// the right strip), from the centered moments.
		var t1, t2 dd
		if left {
			d := twoDiff(m.c, e.lo)
			t1 = s1.add(d.mulF(kf))
			t2 = s2.add(d.mul(s1).mulF(2)).add(d.mul(d).mulF(kf))
		} else {
			d := twoDiff(e.hi, m.c)
			t1 = d.mulF(kf).sub(s1)
			t2 = d.mul(d).mulF(kf).sub(d.mul(s1).mulF(2)).add(s2)
		}
		p1, p2 = t1.val(), t2.val()
	}
	// The offset is off + sgn·X: X − lo on the left, hi − X on the right.
	off, sgn := -e.lo, 1.0
	if !left {
		off, sgn = e.hi, -1
	}
	for _, x := range m.xs[l:L] {
		d := off + sgn*x
		p1 += d
		p2 += d * d
	}
	for _, x := range m.xs[R:r] {
		d := off + sgn*x
		p1 += d
		p2 += d * d
	}
	iv := 1 / v
	ihs := 1 / e.h
	// ΣG = k(−3 ln v − 6/v) + Σs·(−12/v + 6/v²) + Σs²·(3/v²).
	return float64(k)*(-3*math.Log(v)-6*iv) +
		p1*ihs*iv*(6*iv-12) +
		p2*ihs*ihs*(3*iv*iv)
}

// stripLogSum returns Σ (−3 ln sᵢ − 9) over index range [l, r) — the
// lower-limit term of group B — using the estimator's log prefixes:
// Σ ln s = Σ ln(X−lo) − k·ln h (left; mirrored on the right). Group B
// has s < 2, so [l, r) lies inside the prefixes' reach.
func (e *Estimator) stripLogSum(l, r int, left bool) float64 {
	k := r - l
	if k <= 0 {
		return 0
	}
	var lnSum dd
	if left {
		lnSum = e.strips.lnLo[r].sub(e.strips.lnLo[l])
	} else {
		off := e.strips.hiStart
		lnSum = e.strips.lnHi[r-off].sub(e.strips.lnHi[l-off])
	}
	return -3*(lnSum.val()-float64(k)*math.Log(e.h)) - 9*float64(k)
}

// stripSumMoment returns Σᵢ BoundaryStripIntegral(sᵢ, u1, u2) over all
// samples in O(log n), for the left (left=true) or right strip.
func (e *Estimator) stripSumMoment(u1, u2 float64, left bool) float64 {
	lou := math.Max(u1, 0)
	hiu := math.Min(u2, 1)
	if hiu <= lou {
		return 0
	}
	m := e.moments
	xs := m.xs
	n := len(xs)
	v1, v2 := 1+lou, 1+hiu
	var iA, iB int
	if left {
		// Group A: s ≤ 1+lou ⇔ X ≤ lo + (1+lou)h → [0, iA).
		// Group B: 1+lou < s < 1+hiu → [iA, iB).
		tA := e.lo + v1*e.h
		tB := e.lo + v2*e.h
		iA = sort.Search(n, func(i int) bool { return xs[i] > tA })
		iB = sort.Search(n, func(i int) bool { return xs[i] >= tB })
		if iB < iA {
			iB = iA // threshold collapse under rounding
		}
		return e.stripGSum(m, 0, iB, v2, true) -
			e.stripGSum(m, 0, iA, v1, true) -
			e.stripLogSum(iA, iB, true)
	}
	// Right strip: s = (hi − X)/h decreases with the index.
	// Group A: s ≤ 1+lou ⇔ X ≥ hi − (1+lou)h → [iA, n).
	// Group B: 1+lou < s < 1+hiu → [iB, iA).
	tA := e.hi - v1*e.h
	tB := e.hi - v2*e.h
	iA = sort.SearchFloat64s(xs, tA)
	iB = sort.Search(n, func(i int) bool { return xs[i] > tB })
	if iB > iA {
		iB = iA
	}
	return e.stripGSum(m, iB, n, v2, false) -
		e.stripGSum(m, iA, n, v1, false) -
		e.stripLogSum(iB, iA, false)
}

// ---------------------------------------------------------------------------
// Resumable searches for DensityGrid's sweep (densitygrid.go): resume a
// lower/upper bound from a previous cursor position with galloping
// (exponential) probes, so an ascending grid costs O(log gap) per point
// instead of O(log n).

// advanceGE returns the first index ≥ from with xs[i] ≥ v (the resumed
// analogue of sort.SearchFloat64s).
func advanceGE(xs []float64, from int, v float64) int {
	n := len(xs)
	if from >= n || xs[from] >= v {
		return from
	}
	// Gallop: find a bracket (lo, hi] with xs[lo] < v ≤ xs[hi].
	lo, step := from, 1
	for lo+step < n && xs[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > n {
		hi = n
	}
	return lo + sort.SearchFloat64s(xs[lo:hi], v)
}

// advanceGT returns the first index ≥ from with xs[i] > v.
func advanceGT(xs []float64, from int, v float64) int {
	n := len(xs)
	if from >= n || xs[from] > v {
		return from
	}
	lo, step := from, 1
	for lo+step < n && xs[lo+step] <= v {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > n {
		hi = n
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return xs[lo+i] > v })
}
