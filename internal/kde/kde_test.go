package kde

import (
	"math"
	"testing"
	"testing/quick"

	"selest/internal/kernel"
	"selest/internal/xmath"
	"selest/internal/xrand"
)

func uniformSamples(t testing.TB, n int, lo, hi float64, seed uint64) []float64 {
	t.Helper()
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.UniformRange(lo, hi)
	}
	return xs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{Bandwidth: 1}); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := New([]float64{1}, Config{Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth should error")
	}
	if _, err := New([]float64{1}, Config{Bandwidth: math.NaN()}); err == nil {
		t.Fatal("NaN bandwidth should error")
	}
	if _, err := New([]float64{1}, Config{Bandwidth: 1, Boundary: BoundaryReflect}); err == nil {
		t.Fatal("boundary mode without domain should error")
	}
	if _, err := New([]float64{5}, Config{Bandwidth: 1, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 1}); err == nil {
		t.Fatal("samples outside domain should error")
	}
	if _, err := New([]float64{0.5}, Config{Bandwidth: 1, Kernel: kernel.Gaussian{}, Boundary: BoundaryKernels, DomainLo: 0, DomainHi: 1}); err == nil {
		t.Fatal("boundary kernels with non-Epanechnikov kernel should error")
	}
}

func TestSingleSampleSelectivity(t *testing.T) {
	// One sample at 0 with h=1: σ̂(−1,1) must be 1 (whole kernel), and
	// σ̂(0,1) must be 0.5 (half the kernel mass).
	e, err := New([]float64{0}, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Selectivity(-1, 1); !xmath.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("whole-kernel selectivity = %v, want 1", got)
	}
	if got := e.Selectivity(0, 1); !xmath.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("half-kernel selectivity = %v, want 0.5", got)
	}
	if got := e.Selectivity(5, 6); got != 0 {
		t.Fatalf("distant query = %v, want 0", got)
	}
	if got := e.Selectivity(1, -1); got != 0 {
		t.Fatalf("inverted query = %v, want 0", got)
	}
}

func TestFastPathMatchesLinear(t *testing.T) {
	// The O(log n + k) evaluation must agree with the paper's Θ(n)
	// Algorithm 1 on every query, for every kernel and boundary mode.
	samples := uniformSamples(t, 800, 0, 100, 1)
	r := xrand.New(2)
	for _, k := range kernel.All() {
		for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect} {
			e, err := New(samples, Config{Kernel: k, Bandwidth: 3, Boundary: mode, DomainLo: 0, DomainHi: 100})
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 100; trial++ {
				a := r.UniformRange(-10, 105)
				b := a + r.Float64()*20
				fast := e.Selectivity(a, b)
				slow := e.SelectivityLinear(a, b)
				if !xmath.AlmostEqual(fast, slow, 1e-10) {
					t.Fatalf("%s/%s: fast %v != linear %v for Q(%v,%v)", k.Name(), mode, fast, slow, a, b)
				}
			}
		}
	}
}

func TestNarrowQuery(t *testing.T) {
	// Query much narrower than the bandwidth exercises the no-full-mass
	// branch of the fast path.
	samples := uniformSamples(t, 500, 0, 10, 3)
	e, err := New(samples, Config{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast := e.Selectivity(5, 5.01)
	slow := e.SelectivityLinear(5, 5.01)
	if !xmath.AlmostEqual(fast, slow, 1e-12) {
		t.Fatalf("narrow query: fast %v != linear %v", fast, slow)
	}
	if fast <= 0 {
		t.Fatal("narrow interior query should have positive estimate")
	}
}

func TestSelectivityAccuracyUniform(t *testing.T) {
	// Interior 10% queries on uniform data should estimate ~0.1 closely.
	samples := uniformSamples(t, 2000, 0, 1000, 4)
	e, err := New(samples, Config{Bandwidth: 30, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Selectivity(450, 550)
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("10%% query estimate = %v, want ~0.1", got)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	samples := uniformSamples(t, 300, 0, 10, 5)
	for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels} {
		e, err := New(samples, Config{Bandwidth: 1, Boundary: mode, DomainLo: 0, DomainHi: 10})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := -2.0, 12.0
		if mode != BoundaryNone {
			lo, hi = 0, 10
		}
		mass := xmath.Simpson(e.Density, lo, hi, 4000)
		// Reflection restores exactly 1; no treatment loses boundary mass
		// only if samples sit near the boundary (they do for uniform);
		// boundary kernels may exceed 1 slightly.
		switch mode {
		case BoundaryReflect:
			if !xmath.AlmostEqual(mass, 1, 1e-3) {
				t.Fatalf("reflect density mass = %v, want 1", mass)
			}
		case BoundaryNone:
			if !xmath.AlmostEqual(mass, 1, 1e-3) {
				t.Fatalf("untreated density over extended support = %v, want 1", mass)
			}
		case BoundaryKernels:
			if mass < 0.97 || mass > 1.05 {
				t.Fatalf("boundary-kernel density mass = %v, want ≈1", mass)
			}
		}
	}
}

func TestSelectivityMatchesDensityIntegral(t *testing.T) {
	// σ̂(a,b) must equal ∫_a^b f̂ for every mode (they are defined that way).
	samples := uniformSamples(t, 400, 0, 10, 6)
	for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels} {
		e, err := New(samples, Config{Bandwidth: 1.2, Boundary: mode, DomainLo: 0, DomainHi: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]float64{{0, 1.5}, {0.2, 3}, {4, 6}, {8.1, 10}, {0.5, 9.5}} {
			want := xmath.Simpson(e.Density, q[0], q[1], 6000)
			got := e.Selectivity(q[0], q[1])
			if !xmath.AlmostEqual(got, want, 2e-3) {
				t.Fatalf("%s: σ̂(%v,%v) = %v, ∫f̂ = %v", mode, q[0], q[1], got, want)
			}
		}
	}
}

func TestBoundaryTreatmentReducesBoundaryError(t *testing.T) {
	// On uniform data the true selectivity of [0, w] is w/range. Without
	// treatment the kernel loses mass outside the boundary and
	// underestimates; both treatments must do better (paper Fig. 10).
	samples := uniformSamples(t, 2000, 0, 1000, 7)
	width := 20.0
	trueSel := width / 1000

	errFor := func(mode BoundaryMode) float64 {
		e, err := New(samples, Config{Bandwidth: 40, Boundary: mode, DomainLo: 0, DomainHi: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(e.Selectivity(0, width) - trueSel)
	}

	none := errFor(BoundaryNone)
	refl := errFor(BoundaryReflect)
	bker := errFor(BoundaryKernels)
	if refl >= none {
		t.Fatalf("reflection error %v not below untreated %v", refl, none)
	}
	if bker >= none {
		t.Fatalf("boundary-kernel error %v not below untreated %v", bker, none)
	}
}

func TestReflectClipsQueriesToDomain(t *testing.T) {
	samples := uniformSamples(t, 500, 0, 10, 8)
	e, err := New(samples, Config{Bandwidth: 1, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := e.Selectivity(0, 10)
	ext := e.Selectivity(-100, 110)
	if !xmath.AlmostEqual(full, ext, 1e-12) {
		t.Fatalf("query past boundary must clip: %v vs %v", full, ext)
	}
	if !xmath.AlmostEqual(full, 1, 1e-9) {
		t.Fatalf("whole-domain reflect selectivity = %v, want 1", full)
	}
}

func TestBoundaryKernelsWholeDomain(t *testing.T) {
	samples := uniformSamples(t, 1000, 0, 10, 9)
	e, err := New(samples, Config{Bandwidth: 1, Boundary: BoundaryKernels, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Selectivity(0, 10)
	// Consistent-but-not-density: slight over-unity is possible before the
	// clamp; after clamping the result must be ~1.
	if got < 0.98 || got > 1 {
		t.Fatalf("whole-domain boundary-kernel selectivity = %v, want ≈1", got)
	}
}

func TestNarrowDomainStripsMeetInMiddle(t *testing.T) {
	// Domain narrower than 2h: strips must not overlap/double count.
	samples := []float64{0.2, 0.5, 0.8}
	e, err := New(samples, Config{Bandwidth: 2, Boundary: BoundaryKernels, DomainLo: 0, DomainHi: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Additivity is checked away from the [0,1] clamp (boundary kernels are
	// consistent but not a density, so the full-domain estimate may exceed
	// one and be clamped).
	whole := e.Selectivity(0.05, 0.9)
	parts := e.Selectivity(0.05, 0.4) + e.Selectivity(0.4, 0.9)
	if !xmath.AlmostEqual(whole, parts, 1e-9) {
		t.Fatalf("narrow-domain additivity broken: whole %v, parts %v", whole, parts)
	}
	if full := e.Selectivity(0, 1); full < 0.9 || full > 1 {
		t.Fatalf("narrow-domain whole selectivity = %v", full)
	}
}

func TestAccessors(t *testing.T) {
	e, err := New([]float64{1, 2, 3}, Config{Bandwidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth() != 0.5 || e.SampleSize() != 3 {
		t.Fatal("accessors wrong")
	}
	if e.Kernel().Name() != "epanechnikov" {
		t.Fatal("default kernel should be Epanechnikov")
	}
	if e.mode != BoundaryNone {
		t.Fatal("default mode should be none")
	}
	if e.Name() != "kernel(epanechnikov,none)" {
		t.Fatalf("Name = %q", e.Name())
	}
}

func TestBoundaryModeString(t *testing.T) {
	if BoundaryNone.String() != "none" || BoundaryReflect.String() != "reflect" ||
		BoundaryKernels.String() != "boundary-kernels" {
		t.Fatal("mode strings wrong")
	}
	if BoundaryMode(99).String() != "BoundaryMode(99)" {
		t.Fatal("unknown mode string wrong")
	}
}

// Property: selectivity is within [0,1], monotone under range widening,
// and additive over adjacent ranges (within clamp effects).
func TestQuickSelectivityInvariants(t *testing.T) {
	samples := uniformSamples(t, 300, 0, 100, 10)
	for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels} {
		e, err := New(samples, Config{Bandwidth: 5, Boundary: mode, DomainLo: 0, DomainHi: 100})
		if err != nil {
			t.Fatal(err)
		}
		prop := func(rawA, rawW uint8) bool {
			a := float64(rawA) / 255 * 90
			w := float64(rawW) / 255 * 10
			s := e.Selectivity(a, a+w)
			wide := e.Selectivity(a-1, a+w+1)
			return s >= 0 && s <= 1 && wide >= s-1e-12
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

// Property: for BoundaryNone and symmetric data, σ̂ is symmetric under
// mirroring the query.
func TestQuickSymmetry(t *testing.T) {
	// Symmetric sample set around 0.
	base := uniformSamples(t, 200, 0, 50, 11)
	samples := make([]float64, 0, 400)
	for _, x := range base {
		samples = append(samples, x, -x)
	}
	e, err := New(samples, Config{Bandwidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawA, rawW uint8) bool {
		a := float64(rawA)/255*40 - 20
		w := float64(rawW) / 255 * 15
		left := e.Selectivity(a, a+w)
		right := e.Selectivity(-a-w, -a)
		return xmath.AlmostEqual(left, right, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
