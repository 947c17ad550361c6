package kde

import (
	"fmt"
	"math"
	"sort"

	"selest/internal/kernel"
	"selest/internal/telemetry"
)

// VariableEstimator is a sample-point adaptive kernel estimator
// (Abramson's square-root law): each sample carries its own bandwidth
//
//	h_i = h · (f̃(X_i) / g)^(−1/2)
//
// where f̃ is a fixed-bandwidth pilot estimate and g the geometric mean of
// the pilot densities at the samples. Dense regions get narrow kernels
// (resolving sharp clusters), sparse regions get wide ones (taming tail
// variance). This is an extension beyond the paper — the natural
// alternative to its hybrid estimator for change-point-rich data — and
// the ablation bench compares the two.
type VariableEstimator struct {
	sorted []float64 // sorted samples
	hs     []float64 // per-sample bandwidths, parallel to sorted
	maxH   float64
	n      int
	k      kernel.Epanechnikov
	lo, hi float64
	// reflect mirrors boundary-adjacent samples (with their bandwidths).
	reflect     bool
	refl        []float64
	reflHs      []float64
	baseH       float64
	sensitivity float64
}

// VariableConfig parameterises a variable-bandwidth estimator. Its
// kernel is the Epanechnikov.
type VariableConfig struct {
	// PilotBandwidth is the fixed bandwidth of the pilot estimate and the
	// base factor h of the per-sample bandwidths. It must be positive
	// (use the normal scale rule).
	PilotBandwidth float64
	// Sensitivity α ∈ [0, 1] exponentiates the adaptation:
	// h_i = h·(f̃(X_i)/g)^(−α). 0 recovers the fixed-bandwidth estimator;
	// 0.5 is Abramson's choice and the default.
	Sensitivity float64
	// Reflect enables boundary reflection at [DomainLo, DomainHi].
	Reflect            bool
	DomainLo, DomainHi float64
}

// NewVariableEstimator fits a variable-bandwidth estimator from the
// context. It aliases the context's sorted sample, and its pilot reuses
// the context's prefix-moment index, so the fit copies, sorts and indexes
// nothing again. It is the variable kernel's one constructor.
func (c *FitContext) NewVariableEstimator(cfg VariableConfig) (*VariableEstimator, error) {
	if cfg.PilotBandwidth <= 0 || math.IsNaN(cfg.PilotBandwidth) || math.IsInf(cfg.PilotBandwidth, 0) {
		return nil, fmt.Errorf("kde: pilot bandwidth must be positive and finite, got %v", cfg.PilotBandwidth)
	}
	alpha := cfg.Sensitivity
	if alpha == 0 {
		alpha = 0.5
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("kde: sensitivity %v outside [0, 1]", alpha)
	}
	if cfg.Reflect && !(cfg.DomainHi > cfg.DomainLo) {
		return nil, fmt.Errorf("kde: reflection needs a proper domain, got [%v, %v]", cfg.DomainLo, cfg.DomainHi)
	}
	if telemetry.Enabled() {
		fitSortsAvoided.Inc()
	}

	e := &VariableEstimator{
		sorted:      c.sorted,
		n:           len(c.sorted),
		lo:          cfg.DomainLo,
		hi:          cfg.DomainHi,
		reflect:     cfg.Reflect,
		baseH:       cfg.PilotBandwidth,
		sensitivity: alpha,
	}
	if cfg.Reflect && (e.sorted[0] < cfg.DomainLo || e.sorted[e.n-1] > cfg.DomainHi) {
		return nil, fmt.Errorf("kde: samples fall outside the domain [%v, %v]", cfg.DomainLo, cfg.DomainHi)
	}

	// Pilot: fixed-bandwidth estimate at the samples themselves.
	pilotCfg := Config{Bandwidth: cfg.PilotBandwidth}
	if cfg.Reflect {
		pilotCfg.Boundary = BoundaryReflect
		pilotCfg.DomainLo, pilotCfg.DomainHi = cfg.DomainLo, cfg.DomainHi
	}
	pilot, err := newSorted(c.sorted, pilotCfg, c.moments)
	if err != nil {
		return nil, err
	}
	dens := make([]float64, e.n)
	logSum := 0.0
	// Floor the pilot density to avoid log(0) and unbounded bandwidths for
	// isolated samples: one-kernel-mass spread over the sample hull.
	span := e.sorted[e.n-1] - e.sorted[0]
	if span <= 0 {
		span = 1
	}
	floor := 1 / (float64(e.n) * span * 100)
	for i, x := range e.sorted {
		d := pilot.Density(x)
		if d < floor {
			d = floor
		}
		dens[i] = d
		logSum += math.Log(d)
	}
	g := math.Exp(logSum / float64(e.n))

	e.hs = make([]float64, e.n)
	for i := range e.hs {
		e.hs[i] = cfg.PilotBandwidth * math.Pow(dens[i]/g, -alpha)
		if e.hs[i] > e.maxH {
			e.maxH = e.hs[i]
		}
	}

	if cfg.Reflect {
		e.buildReflection()
	}
	return e, nil
}

// buildReflection mirrors boundary-adjacent samples with their individual
// bandwidths.
func (e *VariableEstimator) buildReflection() {
	support := e.k.Support()
	for i, x := range e.sorted {
		reach := e.hs[i] * support
		if x-e.lo < reach {
			e.refl = append(e.refl, 2*e.lo-x)
			e.reflHs = append(e.reflHs, e.hs[i])
		}
		if e.hi-x < reach {
			e.refl = append(e.refl, 2*e.hi-x)
			e.reflHs = append(e.reflHs, e.hs[i])
		}
	}
}

// Selectivity returns the estimated selectivity σ̂(a,b) ∈ [0,1].
func (e *VariableEstimator) Selectivity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	if e.reflect {
		a = math.Max(a, e.lo)
		b = math.Min(b, e.hi)
		if b < a {
			return 0
		}
	}
	// Per-sample bandwidths break the single-window fast path; restrict
	// the scan to samples within maxH·support of the query instead.
	reach := e.maxH * e.k.Support()
	sum := e.sumWindow(e.sorted, e.hs, a, b, reach)
	sum += e.sumAll(e.refl, e.reflHs, a, b)
	s := sum / float64(e.n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// sumWindow sums kernel masses for sorted samples within reach of [a, b].
func (e *VariableEstimator) sumWindow(sorted, hs []float64, a, b, reach float64) float64 {
	loIdx := sort.SearchFloat64s(sorted, a-reach)
	hiIdx := sort.Search(len(sorted), func(i int) bool { return sorted[i] > b+reach })
	sum := 0.0
	for i := loIdx; i < hiIdx; i++ {
		sum += e.k.CDF((b-sorted[i])/hs[i]) - e.k.CDF((a-sorted[i])/hs[i])
	}
	// Samples left of the window with very wide kernels? maxH bounds every
	// h, and reach = maxH·support, so none can contribute. (Asserted by
	// the cross-check against sumAll in tests.)
	return sum
}

// sumAll sums kernel masses over an unsorted slice (the small reflection
// set).
func (e *VariableEstimator) sumAll(xs, hs []float64, a, b float64) float64 {
	sum := 0.0
	for i, x := range xs {
		sum += e.k.CDF((b-x)/hs[i]) - e.k.CDF((a-x)/hs[i])
	}
	return sum
}

// Density returns the estimated density f̂(x).
func (e *VariableEstimator) Density(x float64) float64 {
	if e.reflect && (x < e.lo || x > e.hi) {
		return 0
	}
	reach := e.maxH * e.k.Support()
	loIdx := sort.SearchFloat64s(e.sorted, x-reach)
	hiIdx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x+reach })
	sum := 0.0
	for i := loIdx; i < hiIdx; i++ {
		sum += e.k.Eval((x-e.sorted[i])/e.hs[i]) / e.hs[i]
	}
	for i, r := range e.refl {
		sum += e.k.Eval((x-r)/e.reflHs[i]) / e.reflHs[i]
	}
	return sum / float64(e.n)
}

// Bandwidths returns a copy of the per-sample bandwidths (sorted-sample
// order), for diagnostics.
func (e *VariableEstimator) Bandwidths() []float64 {
	return append([]float64(nil), e.hs...)
}

// SampleSize returns the number of samples.
func (e *VariableEstimator) SampleSize() int { return e.n }

// Name identifies the estimator in experiment output.
func (e *VariableEstimator) Name() string {
	return "variable-kernel(" + e.k.Name() + ")"
}
