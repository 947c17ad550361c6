package hybrid

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"selest/internal/errs"
	"selest/internal/kde"
	"selest/internal/xmath"
	"selest/internal/xrand"
)

// stepSample draws n points, sorted ascending as New takes them, from a
// density with a hard jump: 80% uniform mass on [0, 300], 20% on
// [700, 1000].
func stepSample(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		if r.Float64() < 0.8 {
			xs[i] = r.Float64() * 300
		} else {
			xs[i] = 700 + r.Float64()*300
		}
	}
	slices.Sort(xs)
	return xs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, 1, Config{}); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := New([]float64{1}, 5, 5, Config{}); err == nil {
		t.Fatal("empty domain should error")
	}
	if _, err := New([]float64{10}, 0, 1, Config{}); err == nil {
		t.Fatal("samples outside domain should error")
	}
	if _, err := New([]float64{1, 3, 2, 4}, 0, 5, Config{}); !errors.Is(err, errs.ErrBadOption) {
		t.Fatalf("unsorted samples: err = %v, want errs.ErrBadOption", err)
	}
}

func TestPartitionsAtDensityJump(t *testing.T) {
	samples := stepSample(4000, 1)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bins() < 2 {
		t.Fatalf("expected multiple bins on step density, got %d", e.Bins())
	}
	// At least one change point must land in or near the transition
	// regions around x=300 and x=700.
	points := e.ChangePoints()
	near := func(target float64) bool {
		for _, p := range points {
			if math.Abs(p-target) < 120 {
				return true
			}
		}
		return false
	}
	if !near(300) && !near(700) {
		t.Fatalf("no change point near the density jumps; points = %v", points)
	}
}

func TestSelectivityAccuracyOnStepDensity(t *testing.T) {
	samples := stepSample(4000, 2)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty middle region.
	if got := e.Selectivity(350, 650); got > 0.03 {
		t.Fatalf("empty-region σ̂ = %v, want ~0", got)
	}
	// Dense region.
	if got := e.Selectivity(0, 300); math.Abs(got-0.8) > 0.05 {
		t.Fatalf("dense-region σ̂ = %v, want ~0.8", got)
	}
	// Whole domain.
	if got := e.Selectivity(0, 1000); got < 0.97 || got > 1 {
		t.Fatalf("whole-domain σ̂ = %v, want ~1", got)
	}
}

func TestHybridBeatsPlainKernelOnJumpData(t *testing.T) {
	// The paper's headline claim: on change-point-rich data the hybrid
	// outperforms a single global kernel estimator. Compare MRE on
	// interior queries around the jump at x=300.
	samples := stepSample(2000, 3)
	hyb, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Plain kernel with the normal scale bandwidth and boundary kernels.
	plain, err := kde.New(samples, kde.Config{
		Bandwidth: 60, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from a huge reference sample.
	ref := stepSample(400000, 4)
	sort.Float64s(ref)
	trueSel := func(a, b float64) float64 {
		lo := sort.SearchFloat64s(ref, a)
		hi := sort.Search(len(ref), func(i int) bool { return ref[i] > b })
		return float64(hi-lo) / float64(len(ref))
	}
	var hybErr, plainErr float64
	queries := 0
	for a := 250.0; a <= 340; a += 5 {
		b := a + 30
		ts := trueSel(a, b)
		if ts == 0 {
			continue
		}
		hybErr += math.Abs(hyb.Selectivity(a, b)-ts) / ts
		plainErr += math.Abs(plain.Selectivity(a, b)-ts) / ts
		queries++
	}
	if queries == 0 {
		t.Fatal("no usable queries")
	}
	if hybErr >= plainErr {
		t.Fatalf("hybrid MRE %.4f not below plain-kernel MRE %.4f near the jump", hybErr/float64(queries), plainErr/float64(queries))
	}
}

func TestSmoothDataSingleOrFewBins(t *testing.T) {
	// A smooth unimodal density still yields a working estimator whose
	// estimates are sane (bins may legitimately be > 1 — the Gaussian has
	// curvature maxima — but accuracy must not suffer).
	r := xrand.New(5)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = xmath.Clamp(r.NormalMeanStd(500, 100), 0, 1000)
	}
	slices.Sort(samples)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Selectivity(400, 600)
	// True mass within ±1σ of a Gaussian ≈ 0.683.
	if math.Abs(got-0.683) > 0.05 {
		t.Fatalf("±1σ σ̂ = %v, want ~0.683", got)
	}
}

func TestDegenerateConstantSample(t *testing.T) {
	samples := []float64{5, 5, 5, 5, 5}
	e, err := New(samples, 0, 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bins() != 1 {
		t.Fatalf("constant sample should give one bin, got %d", e.Bins())
	}
	if got := e.Selectivity(0, 10); !xmath.AlmostEqual(got, 1, 1e-9) {
		t.Fatalf("whole-domain σ̂ = %v, want 1", got)
	}
}

func TestTinySample(t *testing.T) {
	e, err := New([]float64{1, 2, 3}, 0, 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Selectivity(0, 10); got < 0.9 {
		t.Fatalf("tiny-sample whole-domain σ̂ = %v", got)
	}
}

func TestDensityIntegratesToRoughlyOne(t *testing.T) {
	samples := stepSample(3000, 6)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mass := xmath.Simpson(e.Density, 0, 1000, 20000)
	if mass < 0.95 || mass > 1.08 {
		t.Fatalf("hybrid density mass = %v, want ≈1", mass)
	}
}

func TestMinBinFractionMerging(t *testing.T) {
	samples := stepSample(2000, 7)
	// Force aggressive merging: every bin must hold >= 30% of samples.
	e, err := New(samples, 0, 1000, Config{MinBinFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bins() > 3 {
		t.Fatalf("aggressive merging should leave <= 3 bins, got %d", e.Bins())
	}
}

func TestMergeSmallBinsUnit(t *testing.T) {
	bounds := []float64{0, 1, 2, 3, 4}
	counts := []int{100, 2, 3, 100}
	b, c := mergeSmallBins(bounds, counts, 10)
	total := 0
	for _, v := range c {
		total += v
	}
	if total != 205 {
		t.Fatalf("samples lost in merge: %v", c)
	}
	if len(b) != len(c)+1 {
		t.Fatalf("bounds/counts inconsistent: %v / %v", b, c)
	}
	for _, v := range c {
		if v < 10 {
			t.Fatalf("merge left an under-threshold bin: %v", c)
		}
	}
}

func TestMergeToSingleBin(t *testing.T) {
	bounds := []float64{0, 1, 2}
	counts := []int{1, 1}
	b, c := mergeSmallBins(bounds, counts, 100)
	if len(c) != 1 || c[0] != 2 || len(b) != 2 {
		t.Fatalf("merge to single bin failed: %v / %v", b, c)
	}
}

func TestQueryClipping(t *testing.T) {
	samples := stepSample(1000, 8)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Selectivity(-100, 1100), e.Selectivity(0, 1000); !xmath.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("query clipping broken: %v vs %v", got, want)
	}
	if e.Selectivity(700, 600) != 0 {
		t.Fatal("inverted query should be 0")
	}
}

// Property: selectivity stays in [0,1], is monotone under widening, and is
// additive across bin-interior split points.
func TestQuickHybridInvariants(t *testing.T) {
	samples := stepSample(1500, 9)
	e, err := New(samples, 0, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawA, rawW uint8) bool {
		a := float64(rawA) / 255 * 900
		w := float64(rawW) / 255 * 100
		m := a + w/2
		s := e.Selectivity(a, a+w)
		parts := e.Selectivity(a, m) + e.Selectivity(m, a+w)
		wide := e.Selectivity(a-5, a+w+5)
		return s >= 0 && s <= 1 && wide >= s-1e-12 && xmath.AlmostEqual(s, parts, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
