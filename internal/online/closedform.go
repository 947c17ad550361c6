package online

// The closed-form refit path: a Builder whose whole fit is the
// moment-index build over the sorted sample plus O(1) arithmetic. The
// serving engine hands each builder the reservoir's sorted view, which
// is immutable, so the fit context aliases it without a copy. With the
// search stage gone, refit wall time is producing the sorted view plus
// the index; the refit bench pins the ratio against the DPI builder.

import (
	"selest/internal/bandwidth"
	"selest/internal/kde"
)

// ClosedFormBuilder returns a Builder that fits a beta-kernel estimator
// under the closed-form beta-reference rule. A zero lo and hi leave the
// domain to each refit's sample hull — the right choice for a drifting
// stream, where a fixed domain would eventually reject the reservoir.
func ClosedFormBuilder(lo, hi float64) Builder {
	return func(samples []float64) (Fitted, error) {
		ctx, err := kde.NewFitContextSorted(samples)
		if err != nil {
			return nil, err
		}
		h, err := bandwidth.BetaClosedFormContext(ctx)
		if err != nil {
			return nil, err
		}
		return ctx.NewBetaEstimator(kde.BetaConfig{Bandwidth: h, DomainLo: lo, DomainHi: hi})
	}
}
