package bandwidth

// Closed-form selector suite: analytic pins for the Beta-roughness
// integrals, finite-positive properties across sample shapes, bit-identity
// across context constructors, degenerate-input errors, and the telemetry exposition of
// the new rule histograms and fit-kind counters.

import (
	"math"
	"sort"
	"strings"
	"testing"

	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// TestBetaRoughnessPins checks the log-space Beta-function evaluation
// against exact values: for Beta(3, 3), f = 30x²(1−x)² gives
// R(f″) = ∫(360x²−360x+60)²dx = 720 exactly and R(f′) = 120/7.
func TestBetaRoughnessPins(t *testing.T) {
	if r := betaRoughnessSecond(3, 3); math.Abs(r-720) > 1e-9*720 {
		t.Fatalf("betaRoughnessSecond(3,3) = %v, want 720", r)
	}
	want1 := 120.0 / 7.0
	if r := betaRoughnessFirst(3, 3); math.Abs(r-want1) > 1e-9*want1 {
		t.Fatalf("betaRoughnessFirst(3,3) = %v, want 120/7", r)
	}
	// Symmetry: swapping the shapes must not change a roughness integral.
	if a, b := betaRoughnessSecond(2.6, 9), betaRoughnessSecond(9, 2.6); math.Abs(a-b) > 1e-9*a {
		t.Fatalf("R(f″) not symmetric: %v vs %v", a, b)
	}
	// Monotonicity sanity: spikier references are rougher.
	if betaRoughnessSecond(50, 50) <= betaRoughnessSecond(3, 3) {
		t.Fatal("sharper Beta reference should have larger R(f″)")
	}
}

// closedFormSelectors runs the two closed-form rules over a fresh fit
// context of the sample; an empty sample fails at the context.
func closedFormSelectors() map[string]func([]float64) (float64, error) {
	over := func(sel func(*kde.FitContext) (float64, error)) func([]float64) (float64, error) {
		return func(xs []float64) (float64, error) {
			ctx, err := kde.NewFitContext(xs)
			if err != nil {
				return 0, err
			}
			return sel(ctx)
		}
	}
	return map[string]func([]float64) (float64, error){
		"beta-closed-form": over(BetaClosedFormContext),
		"exact-mise":       over(ExactMISECDFContext),
	}
}

// closedFormShapes is the property corpus: varied distributions, sizes,
// and magnitudes that every selector must answer with a finite positive
// bandwidth.
func closedFormShapes(t testing.TB) map[string][]float64 {
	t.Helper()
	r := xrand.New(77)
	shapes := map[string][]float64{}
	uniform := make([]float64, 4096)
	for i := range uniform {
		uniform[i] = r.Float64() * 1e6
	}
	shapes["uniform"] = uniform
	skewed := make([]float64, 2048)
	for i := range skewed {
		u := r.Float64()
		skewed[i] = u * u * u * 100 // heavy left mass → α < β reference
	}
	shapes["skewed"] = skewed
	bimodal := make([]float64, 1000)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = r.Normal() + 10
		} else {
			bimodal[i] = r.Normal() - 10
		}
	}
	shapes["bimodal"] = bimodal
	shapes["tiny"] = []float64{1, 2, 5}
	shapes["offset"] = []float64{1e12, 1e12 + 1, 1e12 + 2, 1e12 + 7}
	huge := make([]float64, 512)
	for i := range huge {
		huge[i] = (r.Float64() - 0.5) * 2e100 // magnitude past the moment-index trust bound
	}
	shapes["extreme-magnitude"] = huge
	return shapes
}

// TestClosedFormFinitePositive pins the core selector property: every
// admissible sample yields 0 < h < ∞, and h never exceeds half the hull
// span (the beta estimator's admissible range).
func TestClosedFormFinitePositive(t *testing.T) {
	selectors := closedFormSelectors()
	for shapeName, xs := range closedFormShapes(t) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		for selName, sel := range selectors {
			h, err := sel(xs)
			if err != nil {
				t.Fatalf("%s(%s): %v", selName, shapeName, err)
			}
			if !(h > 0) || math.IsInf(h, 0) || math.IsNaN(h) {
				t.Fatalf("%s(%s) = %v, want finite positive", selName, shapeName, h)
			}
			if span := hi - lo; h > 0.5*span*(1+1e-12) {
				t.Fatalf("%s(%s) = %v exceeds span/2 = %v", selName, shapeName, h, 0.5*span)
			}
		}
	}
}

// TestClosedFormShrinksWithN pins the rates: b ∝ n^{-1/5} for the
// density-targeted rule and n^{-1/3} for the CDF-targeted rule, so
// doubling n must shrink both bandwidths.
func TestClosedFormShrinksWithN(t *testing.T) {
	r := xrand.New(5)
	big := make([]float64, 1<<14)
	for i := range big {
		big[i] = r.Normal()
	}
	small := big[:1<<10]
	for name, sel := range closedFormSelectors() {
		hs, err := sel(small)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := sel(big)
		if err != nil {
			t.Fatal(err)
		}
		if hb >= hs {
			t.Fatalf("%s: h(n=%d)=%v not below h(n=%d)=%v", name, len(big), hb, len(small), hs)
		}
	}
}

// TestClosedFormContextBitIdentical pins both selectors to the sorted
// data rather than to how the context got it: a context that sorts the
// sample and one that aliases the caller's sorted copy give the same
// bits.
func TestClosedFormContextBitIdentical(t *testing.T) {
	for shapeName, xs := range closedFormShapes(t) {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		aliased, err := kde.NewFitContextSorted(sorted)
		if err != nil {
			t.Fatal(err)
		}
		for name, sel := range map[string]func(*kde.FitContext) (float64, error){
			"beta-closed-form": BetaClosedFormContext,
			"exact-mise":       ExactMISECDFContext,
		} {
			h1, err1 := sel(fitContext(t, xs))
			h2, err2 := sel(aliased)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: errs %v / %v", shapeName, name, err1, err2)
			}
			if h1 != h2 {
				t.Fatalf("%s/%s: sorting context %v != aliasing context %v", shapeName, name, h1, h2)
			}
		}
	}
}

// TestClosedFormDegenerate pins the error surface: empty and
// zero-scale samples fail exactly like the other rules do.
func TestClosedFormDegenerate(t *testing.T) {
	for name, sel := range closedFormSelectors() {
		if _, err := sel(nil); err == nil {
			t.Fatalf("%s: no error on empty sample", name)
		}
		if _, err := sel([]float64{3, 3, 3, 3}); err == nil {
			t.Fatalf("%s: no error on constant sample", name)
		} else if !strings.Contains(err.Error(), "degenerate") {
			t.Fatalf("%s: constant-sample error %q, want degenerate-scale", name, err)
		}
		if _, err := sel([]float64{5}); err == nil {
			t.Fatalf("%s: no error on single sample", name)
		}
	}
}

// FuzzClosedFormSelectors drives both selectors over arbitrary 4-sample
// seeds extended to a deterministic pseudo-random tail: either an error
// or a finite positive bandwidth, never NaN/Inf/0, never a panic.
func FuzzClosedFormSelectors(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, uint64(16))
	f.Add(-1e9, 1e9, 0.0, 1e-9, uint64(1024))
	f.Add(1e300, -1e300, 5.0, 5.0, uint64(3))
	f.Fuzz(func(t *testing.T, a, b, c, d float64, extra uint64) {
		xs := []float64{a, b, c, d}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		r := xrand.New(extra)
		for i := uint64(0); i < extra%512; i++ {
			xs = append(xs, a+(b-a)*r.Float64())
		}
		for name, sel := range closedFormSelectors() {
			h, err := sel(xs)
			if err != nil {
				continue
			}
			if !(h > 0) || math.IsInf(h, 0) || math.IsNaN(h) {
				t.Fatalf("%s = %v on %v", name, h, xs)
			}
		}
	})
}

// TestClosedFormMetricsStructural drives closed-form and searched
// selections, then checks the rule histograms and the fit-kind counters
// through the same snapshot/exposition surface the /metrics endpoint
// serves. Deltas only: the registry is process-global.
func TestClosedFormMetricsStructural(t *testing.T) {
	before := telemetry.Default.Snapshot()

	r := xrand.New(9)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Normal()
	}
	ctx := fitContext(t, xs)
	if _, err := BetaClosedFormContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ExactMISECDFContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LSCVBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{}, 0.05, 3, 12, 0); err != nil {
		t.Fatal(err)
	}

	after := telemetry.Default.Snapshot()
	for _, rule := range []string{"beta-closed-form", "exact-mise"} {
		name := telemetry.Label("selest_bandwidth_rule_nanos", "rule", rule)
		h, ok := after.Histograms[name]
		if !ok {
			t.Fatalf("%s histogram not registered", name)
		}
		if h.Count <= before.Histograms[name].Count {
			t.Fatalf("%s did not move: %d -> %d", name, before.Histograms[name].Count, h.Count)
		}
	}
	cfName := telemetry.Label("selest_fit_closed_form_total", "kind", "closed-form")
	seName := telemetry.Label("selest_fit_closed_form_total", "kind", "searched")
	// Three closed forms ran (beta, exact-mise, normal-scale) and one search.
	if delta := after.Counters[cfName] - before.Counters[cfName]; delta != 3 {
		t.Fatalf("closed-form counter delta = %d, want 3", delta)
	}
	if delta := after.Counters[seName] - before.Counters[seName]; delta != 1 {
		t.Fatalf("searched counter delta = %d, want 1", delta)
	}

	var sb strings.Builder
	if err := telemetry.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE selest_bandwidth_rule_nanos histogram",
		`selest_bandwidth_rule_nanos_count{rule="beta-closed-form"}`,
		`selest_bandwidth_rule_nanos_count{rule="exact-mise"}`,
		"# TYPE selest_fit_closed_form_total counter",
		`selest_fit_closed_form_total{kind="closed-form"}`,
		`selest_fit_closed_form_total{kind="searched"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
