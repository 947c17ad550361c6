package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"selest/internal/fsort"
	"selest/internal/kde"
	"selest/internal/xrand"
)

func testSamples(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Floor(r.Float64() * 1000)
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{DomainHi: 1}); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := Build([]float64{1}, Options{}); err == nil {
		t.Fatal("empty domain should error")
	}
	if _, err := Build([]float64{1}, Options{Method: "bogus", DomainHi: 1}); err == nil {
		t.Fatal("unknown method should error")
	}
	if _, err := Build(testSamples(100, 1), Options{Method: EquiWidth, Rule: "bogus", DomainHi: 1000}); err == nil {
		t.Fatal("unknown rule should error")
	}
	if _, err := Build(testSamples(100, 1), Options{Method: EquiWidth, Rule: LSCV, DomainHi: 1000}); err == nil {
		t.Fatal("LSCV for histograms should error")
	}
}

func TestBuildEveryMethod(t *testing.T) {
	samples := testSamples(2000, 2)
	for _, m := range Methods() {
		est, err := Build(samples, Options{Method: m, DomainLo: 0, DomainHi: 1000})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if est.Name() == "" {
			t.Fatalf("%s: empty Name", m)
		}
		// 10% interior query on uniform data: every method should land
		// within a loose tolerance of 0.1.
		got := est.Selectivity(450, 550)
		if math.Abs(got-0.1) > 0.05 {
			t.Fatalf("%s: σ̂(450,550) = %v, want ~0.1", m, got)
		}
		// Basic sanity.
		if s := est.Selectivity(0, 1000); s < 0.9 || s > 1 {
			t.Fatalf("%s: whole-domain σ̂ = %v", m, s)
		}
		if est.Selectivity(900, 100) != 0 {
			t.Fatalf("%s: inverted query should be 0", m)
		}
	}
}

func TestBuildDefaultsToKernel(t *testing.T) {
	est, err := Build(testSamples(500, 3), Options{DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est.(*kde.Estimator); !ok {
		t.Fatalf("default method built %T, want *kde.Estimator", est)
	}
}

func TestBuildFixedParameters(t *testing.T) {
	samples := testSamples(1000, 4)
	est, err := Build(samples, Options{Method: EquiWidth, Bins: 7, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	type binned interface{ Bins() int }
	if b, ok := est.(binned); !ok || b.Bins() != 7 {
		t.Fatalf("fixed bins not honoured: %T", est)
	}

	kest, err := Build(samples, Options{Method: Kernel, Bandwidth: 42, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if kest.(*kde.Estimator).Bandwidth() != 42 {
		t.Fatal("fixed bandwidth not honoured")
	}
}

func TestBuildRules(t *testing.T) {
	samples := testSamples(2000, 5)
	for _, rule := range []BandwidthRule{NormalScale, DPI, LSCV} {
		est, err := Build(samples, Options{Method: Kernel, Rule: rule, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1000})
		if err != nil {
			t.Fatalf("rule %s: %v", rule, err)
		}
		h := est.(*kde.Estimator).Bandwidth()
		if h <= 0 || h > 500 {
			t.Fatalf("rule %s: implausible bandwidth %v", rule, h)
		}
	}
}

func TestMethodsComplete(t *testing.T) {
	if len(Methods()) != 14 {
		t.Fatalf("Methods() lists %d methods", len(Methods()))
	}
}

// TestBuildSortedMatchesBuild pins the sorted entry to Build: for every
// method and the rules the kernel methods serve with, a fit over sorted
// samples answers bit-identically to Build over the same samples, sorted
// or not (Build sorts them first), and unsorted input is an ErrBadOption
// error for every method, never a panic.
func TestBuildSortedMatchesBuild(t *testing.T) {
	samples := testSamples(3000, 11)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	base := Options{DomainLo: 0, DomainHi: 1000}
	var cases []Options
	for _, m := range Methods() {
		o := base
		o.Method = m
		cases = append(cases, o)
	}
	for _, o := range []Options{
		{Method: Kernel, Rule: DPI, Boundary: kde.BoundaryKernels},
		{Method: Kernel, Rule: NormalScale, Boundary: kde.BoundaryReflect},
		{Method: BetaKernel, Rule: ExactMISE},
		{Method: EquiDepth, Rule: DPI},
	} {
		o.DomainLo, o.DomainHi = base.DomainLo, base.DomainHi
		cases = append(cases, o)
	}
	r := xrand.New(5)
	queries := make([][2]float64, 200)
	for i := range queries {
		a := r.Float64()*1100 - 50
		queries[i] = [2]float64{a, a + r.Float64()*300}
	}
	for _, o := range cases {
		name := string(o.Method) + "/" + string(o.Rule)
		got, err := BuildSorted(sorted, o)
		if err != nil {
			t.Fatalf("%s: BuildSorted: %v", name, err)
		}
		refs := []Estimator{}
		for _, in := range [][]float64{sorted, samples} {
			ref, err := Build(in, o)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs {
			for _, q := range queries {
				if a, b := got.Selectivity(q[0], q[1]), ref.Selectivity(q[0], q[1]); a != b {
					t.Fatalf("%s: Selectivity(%v, %v) = %v sorted, %v from Build", name, q[0], q[1], a, b)
				}
			}
		}
		if _, err := BuildSorted(samples, o); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: unsorted input: %v, want ErrBadOption", name, err)
		}
	}
}

// TestBuildSortedUsesSampleInPlace: the sampling fit and the histogram
// fits that keep no sample read the sorted sample BuildSorted is handed
// where it lies, so a fit over 2^16 values allocates less than one copy
// of them.
func TestBuildSortedUsesSampleInPlace(t *testing.T) {
	const n, fits = 1 << 16, 4
	sorted := testSamples(n, 17)
	fsort.Float64s(sorted)
	for _, m := range []Method{Sampling, Uniform, EquiWidth, ASH, FrequencyPolygon} {
		opts := Options{Method: m, DomainLo: 0, DomainHi: 1000}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fits; i++ {
			if _, err := BuildSorted(sorted, opts); err != nil {
				t.Fatalf("%s: %v", m, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / fits; per >= 8*n {
			t.Errorf("%s: a fit allocated %d bytes, not under the %d of one copy of its sample", m, per, 8*n)
		}
	}
}

// TestSortsAvoidedCounter pins what selest_fit_sorts_avoided_total
// counts on the build path: a fit that reuses a sort it did not pay for.
// Build pays its own sort, so only the estimators it fits from its fit
// context count; BuildSorted counts its caller's sorted view on top.
func TestSortsAvoidedCounter(t *testing.T) {
	samples := testSamples(2000, 13)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	for _, c := range []struct {
		opts   Options
		sorted bool
		want   int64
	}{
		{Options{Method: EquiDepth}, false, 0},
		{Options{Method: EquiDepth}, true, 1},
		{Options{Method: EquiDepth, Rule: DPI}, false, 2}, // the two pilots
		{Options{Method: Kernel}, false, 1},               // the estimator
		{Options{Method: Kernel}, true, 2},
		{Options{Method: VariableKernel}, false, 1}, // the estimator; its pilot shares the context
	} {
		c.opts.DomainLo, c.opts.DomainHi = 0, 1000
		before := fitSortsAvoided.Value()
		var err error
		if c.sorted {
			_, err = BuildSorted(sorted, c.opts)
		} else {
			_, err = Build(samples, c.opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := fitSortsAvoided.Value() - before; got != c.want {
			t.Errorf("%s/%s sorted=%v: %d sorts avoided, want %d", c.opts.Method, c.opts.Rule, c.sorted, got, c.want)
		}
	}
}
