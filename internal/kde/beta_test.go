package kde

// Tests for the beta-kernel estimator: the O(log n) weighted closed forms
// must match the Θ(n) reference within momentTol, the density must
// integrate to exactly one over the domain (the cut-and-normalize
// construction's defining property), selectivities must stay in [0, 1] on
// adversarial input, context fits must be bit-identical to from-scratch
// fits, and the query path must not allocate.

import (
	"math"
	"sort"
	"testing"

	"selest/internal/xrand"
)

// betaFracs sweeps the bandwidth as a fraction of the domain span; 0.9
// exercises the span/2 clamp.
var betaFracs = []float64{0.003, 0.04, 0.3, 0.9}

func TestBetaMatchesLinear(t *testing.T) {
	for _, sc := range momentCorpus(t) {
		r := xrand.New(11)
		span := sc.hi - sc.lo
		for _, hFrac := range betaFracs {
			h := hFrac * span
			if h <= 0 {
				h = 1
			}
			e, err := fitBeta(sc.samples, BetaConfig{Bandwidth: h, DomainLo: sc.lo, DomainHi: sc.hi})
			if err != nil {
				t.Fatalf("%s/h=%v: %v", sc.name, h, err)
			}
			if e.moments == nil {
				t.Fatalf("%s: moment index unexpectedly disabled", sc.name)
			}
			for _, q := range queriesFor(r, sc.lo, sc.hi, e.Bandwidth(), 60) {
				fast := e.Selectivity(q.A, q.B)
				lin := e.SelectivityLinear(q.A, q.B)
				if math.Abs(fast-lin) > momentTol {
					t.Fatalf("%s/h=%v: moment %v vs linear %v for Q(%v,%v)",
						sc.name, h, fast, lin, q.A, q.B)
				}
				if fast < 0 || fast > 1 || math.IsNaN(fast) {
					t.Fatalf("%s/h=%v: selectivity %v outside [0,1] for Q(%v,%v)",
						sc.name, h, fast, q.A, q.B)
				}
			}
		}
	}
}

// TestBetaMassUnity pins the construction's defining property: the
// density integrates to exactly 1 over the domain — the whole-domain
// selectivity, evaluated unclamped through the closed forms, is 1 within
// momentTol. Partitions of the domain must add back to the same total.
func TestBetaMassUnity(t *testing.T) {
	for _, sc := range momentCorpus(t) {
		span := sc.hi - sc.lo
		for _, hFrac := range betaFracs {
			h := hFrac * span
			if h <= 0 {
				h = 1
			}
			e, err := fitBeta(sc.samples, BetaConfig{Bandwidth: h, DomainLo: sc.lo, DomainHi: sc.hi})
			if err != nil {
				t.Fatalf("%s/h=%v: %v", sc.name, h, err)
			}
			mass := e.SelectivityUnclamped(sc.lo, sc.hi)
			if math.Abs(mass-1) > momentTol {
				t.Fatalf("%s/h=%v: whole-domain mass %v, want 1±%v", sc.name, h, mass, momentTol)
			}
			// Beyond-domain queries see the same (clipped) mass.
			if wide := e.SelectivityUnclamped(sc.lo-span-1, sc.hi+span+1); math.Abs(wide-1) > momentTol {
				t.Fatalf("%s/h=%v: hull-covering mass %v, want 1", sc.name, h, wide)
			}
			// A 7-segment partition must add back to the whole.
			const parts = 7
			sum := 0.0
			for i := 0; i < parts; i++ {
				a := sc.lo + span*float64(i)/parts
				b := sc.lo + span*float64(i+1)/parts
				sum += e.SelectivityUnclamped(a, b)
			}
			if math.Abs(sum-mass) > momentTol {
				t.Fatalf("%s/h=%v: partition sum %v vs whole %v", sc.name, h, sum, mass)
			}
		}
	}
}

// TestBetaDensity pins density sanity: non-negative everywhere, zero
// outside the domain, the moment path matching the Θ(n) scan, and the
// trapezoid integral over a fine grid close to 1 (the exact statement is
// TestBetaMassUnity; the grid integral checks Density itself).
func TestBetaDensity(t *testing.T) {
	r := xrand.New(23)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = math.Floor(r.Float64() * 1e6)
	}
	e, err := fitBeta(xs, BetaConfig{Bandwidth: 3e4, DomainLo: 0, DomainHi: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	const m = 2001
	grid := e.DensityGrid(0, 1e6, m)
	dx := 1e6 / float64(m-1)
	integral := 0.0
	for i, d := range grid {
		x := float64(i) * dx
		if d < 0 {
			t.Fatalf("negative density %v at %v", d, x)
		}
		if lin := e.densityLinear(x) / (float64(e.n) * e.h); math.Abs(d-lin) > momentTol {
			t.Fatalf("density moment %v vs linear %v at %v", d, lin, x)
		}
		w := dx
		if i == 0 || i == m-1 {
			w = dx / 2
		}
		integral += d * w
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("trapezoid integral %v, want ≈1", integral)
	}
	if e.Density(-1) != 0 || e.Density(1e6+1) != 0 || e.Density(math.NaN()) != 0 {
		t.Fatal("density outside the domain must be 0")
	}
}

// TestBetaAdversarial covers the degenerate corners: constant data, n=1,
// massive tie blocks, bandwidth clamping, and the typed construction
// failures.
func TestBetaAdversarial(t *testing.T) {
	// Constant data, defaulted domain → point mass.
	e, err := fitBeta([]float64{7, 7, 7, 7}, BetaConfig{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Selectivity(6, 8); got != 1 {
		t.Fatalf("point mass covering query: got %v, want 1", got)
	}
	if got := e.Selectivity(7, 7); got != 1 {
		t.Fatalf("point query on the mass: got %v, want 1", got)
	}
	if got := e.Selectivity(8, 9); got != 0 {
		t.Fatalf("point mass missing query: got %v, want 0", got)
	}
	if got := e.Density(7); got != 0 {
		t.Fatalf("point mass has no density, got %v", got)
	}

	// n = 1 with a proper domain: a single renormalised kernel.
	e, err = fitBeta([]float64{5}, BetaConfig{Bandwidth: 2, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mass := e.SelectivityUnclamped(0, 10); math.Abs(mass-1) > momentTol {
		t.Fatalf("n=1 mass %v, want 1", mass)
	}

	// Ties at the boundary: half the samples at the domain edge.
	xs := []float64{0, 0, 0, 0, 0, 3, 5, 9, 10, 10}
	e, err = fitBeta(xs, BetaConfig{Bandwidth: 4, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mass := e.SelectivityUnclamped(0, 10); math.Abs(mass-1) > momentTol {
		t.Fatalf("tied-boundary mass %v, want 1", mass)
	}

	// Bandwidth wider than the domain is clamped to span/2.
	if e.Bandwidth() != 4 {
		t.Fatalf("bandwidth %v, want 4", e.Bandwidth())
	}
	e, err = fitBeta(xs, BetaConfig{Bandwidth: 100, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth() != 5 {
		t.Fatalf("clamped bandwidth %v, want 5", e.Bandwidth())
	}
	if mass := e.SelectivityUnclamped(0, 10); math.Abs(mass-1) > momentTol {
		t.Fatalf("clamped-bandwidth mass %v, want 1", mass)
	}

	// Construction failures: empty samples, bad bandwidth, samples outside
	// the domain, NaN samples, NaN domain.
	if _, err := fitBeta(nil, BetaConfig{Bandwidth: 1}); err == nil {
		t.Fatal("empty sample set must fail")
	}
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := fitBeta([]float64{1, 2}, BetaConfig{Bandwidth: h}); err == nil {
			t.Fatalf("bandwidth %v must fail", h)
		}
	}
	if _, err := fitBeta([]float64{1, 20}, BetaConfig{Bandwidth: 1, DomainLo: 0, DomainHi: 10}); err == nil {
		t.Fatal("samples outside the domain must fail")
	}
	if _, err := fitBeta([]float64{1, math.NaN(), 3}, BetaConfig{Bandwidth: 1, DomainLo: 0, DomainHi: 10}); err == nil {
		t.Fatal("NaN sample must fail")
	}
	if _, err := fitBeta([]float64{1, 2}, BetaConfig{Bandwidth: 1, DomainLo: math.NaN(), DomainHi: 10}); err == nil {
		t.Fatal("NaN domain must fail")
	}
	if _, err := fitBeta([]float64{1, 2}, BetaConfig{Bandwidth: 1, DomainLo: 10, DomainHi: 0}); err == nil {
		t.Fatal("inverted domain must fail")
	}
}

// TestBetaFallbackOnExtremeMagnitude: magnitudes the moment index refuses
// must still be served, through the weighted linear path, with mass
// conservation intact.
func TestBetaFallbackOnExtremeMagnitude(t *testing.T) {
	xs := []float64{-2e100, -1e100, 0, 1e100, 2e100}
	e, err := fitBeta(xs, BetaConfig{Bandwidth: 1e100})
	if err != nil {
		t.Fatal(err)
	}
	if e.moments != nil {
		t.Fatal("moment index should be disabled at 1e100 magnitudes")
	}
	if mass := e.SelectivityUnclamped(-2e100, 2e100); math.Abs(mass-1) > momentTol {
		t.Fatalf("fallback mass %v, want 1", mass)
	}
	if s := e.Selectivity(-1e100, 1e100); s <= 0 || s >= 1 {
		t.Fatalf("interior query %v outside (0,1)", s)
	}
}

// TestBetaContextBitIdentical: fitting through a FitContext must give
// bit-identical results to a fit that builds its own moment index over
// the same sorted data — same index, same closed forms.
func TestBetaContextBitIdentical(t *testing.T) {
	for _, sc := range momentCorpus(t) {
		span := sc.hi - sc.lo
		h := 0.05 * span
		if h <= 0 {
			h = 1
		}
		cfg := BetaConfig{Bandwidth: h, DomainLo: sc.lo, DomainHi: sc.hi}
		sorted := append([]float64(nil), sc.samples...)
		sort.Float64s(sorted)
		fresh, err := newBetaSorted(sorted, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		ctx, err := NewFitContext(sc.samples)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		shared, err := ctx.NewBetaEstimator(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		r := xrand.New(31)
		for _, q := range queriesFor(r, sc.lo, sc.hi, h, 80) {
			if a, b := fresh.Selectivity(q.A, q.B), shared.Selectivity(q.A, q.B); a != b {
				t.Fatalf("%s: context fit diverges: %v vs %v for Q(%v,%v)", sc.name, a, b, q.A, q.B)
			}
		}
		for i := 0; i <= 32; i++ {
			x := sc.lo + span*float64(i)/32
			if a, b := fresh.Density(x), shared.Density(x); a != b {
				t.Fatalf("%s: context density diverges: %v vs %v at %v", sc.name, a, b, x)
			}
		}
	}
}

// TestBetaBatchMatchesSingle: the batch API must be bit-identical to
// per-query Selectivity calls.
func TestBetaBatchMatchesSingle(t *testing.T) {
	for _, sc := range momentCorpus(t) {
		span := sc.hi - sc.lo
		h := 0.04 * span
		if h <= 0 {
			h = 1
		}
		e, err := fitBeta(sc.samples, BetaConfig{Bandwidth: h, DomainLo: sc.lo, DomainHi: sc.hi})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		r := xrand.New(43)
		qs := queriesFor(r, sc.lo, sc.hi, h, 120)
		got := e.SelectivityBatch(qs)
		for i, q := range qs {
			if want := e.Selectivity(q.A, q.B); got[i] != want {
				t.Fatalf("%s: batch[%d]=%v vs single %v for Q(%v,%v)", sc.name, i, got[i], want, q.A, q.B)
			}
		}
	}
}

// TestBetaMomentSummary pins the O(1) context moment read against a plain
// two-pass computation.
func TestBetaMomentSummary(t *testing.T) {
	r := xrand.New(51)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1e9 + r.Float64()*4096
	}
	ctx, err := NewFitContext(xs)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance, ok := ctx.MomentSummary()
	if !ok {
		t.Fatal("MomentSummary not ok on finite data")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	wantMean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - wantMean
		sq += d * d
	}
	wantVar := sq / float64(len(xs))
	// The compensated prefix sums are more accurate than the naive
	// reference at this offset; compare relatively.
	if math.Abs(mean-wantMean) > 1e-12*math.Abs(wantMean) || math.Abs(variance-wantVar)/wantVar > 1e-9 {
		t.Fatalf("MomentSummary (%v, %v) vs reference (%v, %v)", mean, variance, wantMean, wantVar)
	}
}

// TestBetaZeroAllocQueries: the closed-form query path must not allocate —
// the serving-engine budget the acceptance criteria pin.
func TestBetaZeroAllocQueries(t *testing.T) {
	r := xrand.New(61)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64() * 1e6
	}
	e, err := fitBeta(xs, BetaConfig{Bandwidth: 2e4, DomainLo: 0, DomainHi: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		e.Selectivity(1e5, 4e5)
		e.Selectivity(0, 3e4) // boundary-block path
	}); a != 0 {
		t.Fatalf("Selectivity allocates %v per run, want 0", a)
	}
	qs := queriesFor(xrand.New(62), 0, 1e6, 2e4, 64)
	dst := make([]float64, len(qs))
	if a := testing.AllocsPerRun(50, func() {
		e.SelectivityBatchInto(dst, qs)
	}); a != 0 {
		t.Fatalf("SelectivityBatchInto allocates %v per run, want 0", a)
	}
}

// FuzzBetaSelectivity: on fuzzer-chosen sample shapes and query bits, the
// moment path must match the Θ(n) reference within momentTol, estimates
// must stay in [0, 1], and degenerate queries must answer 0.
func FuzzBetaSelectivity(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(20), 0.05, uint64(0), uint64(0))
	f.Add(uint64(2), uint16(1000), uint8(31), 0.01, math.Float64bits(1000.0), math.Float64bits(2000.0))
	f.Add(uint64(3), uint16(1), uint8(8), 0.5, math.Float64bits(math.NaN()), math.Float64bits(10.0))
	f.Add(uint64(4), uint16(300), uint8(15), 0.9, math.Float64bits(100.0), math.Float64bits(90.0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, domPow uint8, hFrac float64, aBits, bBits uint64) {
		if n == 0 {
			n = 1
		}
		if n > 3000 {
			n = 3000
		}
		if domPow < 4 {
			domPow = 4
		}
		if domPow > 40 {
			domPow = 40
		}
		if math.IsNaN(hFrac) || hFrac <= 0 || hFrac > 1 {
			hFrac = 0.05
		}
		span := math.Exp2(float64(domPow))
		r := xrand.New(seed | 1)
		xs := make([]float64, int(n))
		switch seed % 3 {
		case 0:
			for i := range xs {
				xs[i] = math.Floor(r.Float64() * span)
			}
		case 1:
			c1, c2 := r.Float64()*span, r.Float64()*span
			for i := range xs {
				c := c1
				if i%2 == 0 {
					c = c2
				}
				xs[i] = math.Min(math.Max(c+(r.Float64()-0.5)*span*1e-4, 0), span)
			}
		default:
			v := math.Floor(r.Float64() * span)
			for i := range xs {
				xs[i] = v
			}
		}
		e, err := fitBeta(xs, BetaConfig{Bandwidth: hFrac * span, DomainLo: 0, DomainHi: span})
		if err != nil {
			t.Skip()
		}
		if !e.point {
			if mass := e.SelectivityUnclamped(0, span); math.Abs(mass-1) > momentTol {
				t.Fatalf("mass %v, want 1", mass)
			}
		}
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)
		fast := e.Selectivity(a, b)
		lin := e.SelectivityLinear(a, b)
		if math.IsNaN(a) || math.IsNaN(b) || b < a {
			if fast != 0 || lin != 0 {
				t.Fatalf("degenerate Q(%v,%v) must be 0: fast=%v lin=%v", a, b, fast, lin)
			}
			return
		}
		if fast < 0 || fast > 1 || math.IsNaN(fast) {
			t.Fatalf("selectivity %v outside [0,1] for Q(%v,%v)", fast, a, b)
		}
		if math.Abs(fast-lin) > momentTol {
			t.Fatalf("moment %v vs linear %v for Q(%v,%v)", fast, lin, a, b)
		}
	})
}

// fitBeta fits a beta-kernel estimator through its one constructor: a
// fresh fit context's NewBetaEstimator.
func fitBeta(samples []float64, cfg BetaConfig) (*BetaEstimator, error) {
	ctx, err := NewFitContext(samples)
	if err != nil {
		return nil, err
	}
	return ctx.NewBetaEstimator(cfg)
}
