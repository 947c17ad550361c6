package bandwidth

// Closed-form bandwidth selectors: O(1) rules that replace the pilot-grid
// cascades of DPI and the grid search of LSCV with exact formulas, so the
// bandwidth step of an online refit costs microseconds instead of tens of
// milliseconds (the refit bench pins the ratio).
//
// Both rules follow the beta-kernel closed-form-selector construction
// (arXiv:2601.19553): normalize the sample to its hull [min, max], fit a
// Beta(α, β) reference density by the method of moments — two moments that
// are an O(1) read off the FitContext's prefix-moment index — and plug the
// reference's derivative roughness, available in closed form through Beta
// functions, into the optimal-bandwidth formula:
//
//   - BetaClosedFormContext targets the density (the AMISE of f̂):
//     b = (R(K) / (n·k₂²·R(f″_ref)))^(1/5), the classical plug-in with the
//     Beta reference replacing the pilot cascade.
//   - ExactMISECDFContext targets the CDF — the quantity a selectivity
//     estimator actually serves (arXiv:1606.06993): minimising the exact
//     kernel-CDF MISE expansion ∫F(1−F)/n − (h/n)·V₁ + ¼h⁴k₂²R(f′) gives
//     b = (V₁ / (n·k₂²·R(f′_ref)))^(1/3), where V₁ = 2∫uK(u)K̄(u)du = 9/35
//     for the Epanechnikov kernel.
//
// Both return an original-scale bandwidth h = b·span, uniform with every
// other rule, and both are Epanechnikov-specific (the constants R(K) = 3/5,
// k₂ = 1/5, V₁ = 9/35 are baked in — the only kernel the fast paths serve).
//
// The Beta shapes are clamped to [2.6, 1e6]: the lower bound keeps every
// roughness integral convergent (R(f″) needs α, β > 2.5), the upper bound
// keeps the log-space Beta-function evaluation far from overflow. Samples
// whose moment fit is degenerate (zero variance handled separately as an
// error; overdispersed or non-finite fits) fall back to the flattest
// admissible reference (α = β = 2.6), which over-smooths gracefully rather
// than failing.

import (
	"fmt"
	"math"
	"time"

	"selest/internal/faultinject"
	"selest/internal/kde"
	"selest/internal/telemetry"
)

// Beta-shape clamps: betaShapeMin keeps R(f″) = ∫f″² convergent
// (needs α, β > 2.5); betaShapeMax bounds the log-Gamma arguments.
const (
	betaShapeMin = 2.6
	betaShapeMax = 1e6
)

// epaV1 is V₁ = 2∫u·K(u)·K̄(u)du for the Epanechnikov kernel, the
// first-order variance-reduction constant of the kernel-CDF MISE.
const epaV1 = 9.0 / 35.0

// BetaClosedFormContext returns the closed-form beta-reference plug-in
// bandwidth for the Epanechnikov kernel over a fit context. Unlike DPI
// there is no pilot estimation: the hull and both moments come off the
// context's prefix-moment index, so the selector itself is O(1) — no pass
// over the data at all.
func BetaClosedFormContext(ctx *kde.FitContext) (float64, error) {
	defer ruleNanosBetaClosedForm.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.beta-closed-form"); err != nil {
		return 0, err
	}
	if telemetry.Enabled() {
		fitKindClosedForm.Inc()
	}
	alpha, beta, span, err := betaReference(ctx)
	if err != nil {
		return 0, err
	}
	r2 := betaRoughnessSecond(alpha, beta)
	// b = (R(K)/(n·k₂²·R₂))^(1/5) with R(K) = 3/5, k₂ = 1/5 → 15/(n·R₂).
	b := math.Pow(15/(float64(ctx.SampleSize())*r2), 0.2)
	if b > 0.5 {
		b = 0.5 // the beta estimator clamps to span/2 anyway; stay in range
	}
	return b * span, nil
}

// ExactMISECDFContext returns the closed-form CDF-targeted bandwidth for
// the Epanechnikov kernel over a fit context: the exact minimiser of the
// kernel-CDF MISE expansion under the beta reference, read off the
// context as in BetaClosedFormContext.
func ExactMISECDFContext(ctx *kde.FitContext) (float64, error) {
	defer ruleNanosExactMISE.ObserveSince(time.Now())
	if err := faultinject.Check("bandwidth.exact-mise"); err != nil {
		return 0, err
	}
	if telemetry.Enabled() {
		fitKindClosedForm.Inc()
	}
	alpha, beta, span, err := betaReference(ctx)
	if err != nil {
		return 0, err
	}
	r1 := betaRoughnessFirst(alpha, beta)
	// b = (V₁/(n·k₂²·R₁))^(1/3) with V₁ = 9/35, k₂ = 1/5 → 45/(7·n·R₁).
	b := math.Cbrt(epaV1 * 25 / (float64(ctx.SampleSize()) * r1))
	if b > 0.5 {
		b = 0.5
	}
	return b * span, nil
}

// betaReference fits the Beta(α, β) reference by the method of moments on
// the hull-normalized sample: with m_z = (mean−lo)/span and v_z = var/span²,
//
//	t = m_z(1−m_z)/v_z − 1,  α = m_z·t,  β = (1−m_z)·t,
//
// clamped to [betaShapeMin, betaShapeMax]. Degenerate samples (zero span
// or zero variance) are an error, matching the other rules' behaviour on
// constant data.
func betaReference(ctx *kde.FitContext) (alpha, beta, span float64, err error) {
	sorted := ctx.Sorted()
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("bandwidth: empty sample set")
	}
	lo, hi := sorted[0], sorted[n-1]
	span = hi - lo
	if !(span > 0) || math.IsInf(span, 0) || math.IsNaN(span) {
		return 0, 0, 0, fmt.Errorf("bandwidth: degenerate sample (zero scale)")
	}
	mean, variance, ok := ctx.MomentSummary()
	if !ok || !(variance > 0) {
		return 0, 0, 0, fmt.Errorf("bandwidth: degenerate sample (zero scale)")
	}
	mz := (mean - lo) / span
	vz := variance / (span * span)
	t := mz*(1-mz)/vz - 1
	alpha = mz * t
	beta = (1 - mz) * t
	alpha = clampShape(alpha)
	beta = clampShape(beta)
	return alpha, beta, span, nil
}

func clampShape(a float64) float64 {
	if math.IsNaN(a) || a < betaShapeMin {
		return betaShapeMin
	}
	if a > betaShapeMax {
		return betaShapeMax
	}
	return a
}

// lbeta returns ln B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func lbeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// betaTerm evaluates coef · B(a, b) / B(α, β)² in log space, so the huge
// Beta-function magnitudes at shape 1e6 never overflow before the ratio.
func betaTerm(coef, a, b, lnB0 float64) float64 {
	if coef == 0 {
		return 0
	}
	v := math.Exp(math.Log(math.Abs(coef)) + lbeta(a, b) - 2*lnB0)
	if coef < 0 {
		return -v
	}
	return v
}

// betaRoughnessFirst returns R(f′) = ∫f′² for the Beta(α, β) density in
// closed form: with p = α−1, q = β−1,
//
//	f′ = f·(p/x − q/(1−x)), so B(α,β)²·R(f′) =
//	p²·B(2p−1, 2q+1) − 2pq·B(2p, 2q) + q²·B(2p+1, 2q−1).
//
// Convergence needs α, β > 1.5; the shape clamp guarantees it.
func betaRoughnessFirst(alpha, beta float64) float64 {
	p, q := alpha-1, beta-1
	lnB0 := lbeta(alpha, beta)
	return betaTerm(p*p, 2*p-1, 2*q+1, lnB0) +
		betaTerm(-2*p*q, 2*p, 2*q, lnB0) +
		betaTerm(q*q, 2*p+1, 2*q-1, lnB0)
}

// betaRoughnessSecond returns R(f″) = ∫f″² for the Beta(α, β) density in
// closed form: with p = α−1, q = β−1, A = p(p−1), B = −2pq, C = q(q−1),
//
//	f″ = f·(A/x² + B/(x(1−x)) + C/(1−x)²), so B(α,β)²·R(f″) =
//	A²·B(2p−3, 2q+1) + B²·B(2p−1, 2q−1) + C²·B(2p+1, 2q−3)
//	+ 2AB·B(2p−2, 2q) + 2AC·B(2p−1, 2q−1) + 2BC·B(2p, 2q−2).
//
// Convergence needs α, β > 2.5; the shape clamp guarantees it.
// Verification pin: Beta(3, 3) gives exactly 720 (closedform_test.go).
func betaRoughnessSecond(alpha, beta float64) float64 {
	p, q := alpha-1, beta-1
	a2, b2, c2 := p*(p-1), -2*p*q, q*(q-1)
	lnB0 := lbeta(alpha, beta)
	return betaTerm(a2*a2, 2*p-3, 2*q+1, lnB0) +
		betaTerm(b2*b2, 2*p-1, 2*q-1, lnB0) +
		betaTerm(c2*c2, 2*p+1, 2*q-3, lnB0) +
		betaTerm(2*a2*b2, 2*p-2, 2*q, lnB0) +
		betaTerm(2*a2*c2, 2*p-1, 2*q-1, lnB0) +
		betaTerm(2*b2*c2, 2*p, 2*q-2, lnB0)
}
