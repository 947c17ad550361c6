package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

func TestBuildEquiWidthValidation(t *testing.T) {
	if _, err := BuildEquiWidth(nil, 0, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildEquiWidth(nil, 3, 1, 1); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestEquiWidthBasics(t *testing.T) {
	h, err := BuildEquiWidth([]float64{0.5, 1.5, 1.6, 2.5, 3.5}, 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 4 || h.SampleSize() != 5 || h.Kind() != "equi-width" {
		t.Fatalf("basics wrong: bins=%d n=%d kind=%s", h.Bins(), h.SampleSize(), h.Kind())
	}
	counts := h.Counts()
	want := []int{1, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestEquiWidthSelectivityExactBins(t *testing.T) {
	h, err := BuildEquiWidth([]float64{0.5, 1.5, 1.6, 2.5}, 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Query exactly covering bin 1 ((1,2], 2 samples of 4).
	if got := h.Selectivity(1, 2); !xmath.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("bin query = %v, want 0.5", got)
	}
	// Half a bin: uniform-spread assumption gives half the bin's mass.
	if got := h.Selectivity(1, 1.5); !xmath.AlmostEqual(got, 0.25, 1e-12) {
		t.Fatalf("half-bin query = %v, want 0.25", got)
	}
	// Whole domain.
	if got := h.Selectivity(0, 4); !xmath.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("whole domain = %v, want 1", got)
	}
	// Outside.
	if h.Selectivity(10, 20) != 0 || h.Selectivity(2, 1) != 0 {
		t.Fatal("outside/inverted queries should be 0")
	}
}

func TestBoundaryValueAssignment(t *testing.T) {
	// A sample exactly on an interior boundary belongs to the left bin
	// ((c_i, c_{i+1}] convention); a sample on c0 belongs to bin 0.
	h, err := BuildEquiWidth([]float64{0, 1, 2}, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := h.Counts()
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("boundary assignment wrong: %v", counts)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	r := xrand.New(1)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.Float64() * 10
	}
	h, err := BuildEquiWidth(samples, 13, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	mass := xmath.Simpson(h.Density, 0, 10, 20000)
	if !xmath.AlmostEqual(mass, 1, 1e-2) {
		t.Fatalf("density mass = %v, want ~1", mass)
	}
}

func TestSelectivityMatchesDensityIntegral(t *testing.T) {
	r := xrand.New(2)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.Normal()*2 + 5
	}
	h, err := BuildEquiWidth(samples, 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0, 3}, {2.5, 7.1}, {9, 10}} {
		want := xmath.Simpson(h.Density, q[0], q[1], 20000)
		got := h.Selectivity(q[0], q[1])
		if !xmath.AlmostEqual(got, want, 1e-2) {
			t.Fatalf("σ̂(%v,%v) = %v, ∫f̂ = %v", q[0], q[1], got, want)
		}
	}
}

func TestEquiDepthBalancedCounts(t *testing.T) {
	r := xrand.New(3)
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = r.Normal()
	}
	h, err := BuildEquiDepthSorted(sortedCopy(samples), 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "equi-depth" {
		t.Fatalf("kind = %s", h.Kind())
	}
	for i, c := range h.Counts() {
		if math.Abs(float64(c)-1000) > 60 {
			t.Fatalf("bin %d count %d far from balanced 1000", i, c)
		}
	}
}

func TestEquiDepthHeavyDuplicates(t *testing.T) {
	// 90% of mass on one value: quantile boundaries collapse; the builder
	// must still produce a valid histogram with fewer bins.
	samples := make([]float64, 100)
	for i := range samples {
		if i < 90 {
			samples[i] = 5
		} else {
			samples[i] = float64(i)
		}
	}
	h, err := BuildEquiDepthSorted(sortedCopy(samples), 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() < 1 || h.Bins() > 10 {
		t.Fatalf("bins = %d", h.Bins())
	}
	total := 0
	for _, c := range h.Counts() {
		total += c
	}
	if total != 100 {
		t.Fatalf("samples lost: counted %d of 100", total)
	}
}

func TestEquiDepthDegenerate(t *testing.T) {
	if _, err := BuildEquiDepthSorted([]float64{7, 7, 7}, 4); err == nil {
		t.Fatal("constant sample should error")
	}
	if _, err := BuildEquiDepthSorted(nil, 4); err == nil {
		t.Fatal("empty sample should error")
	}
}

func TestMaxDiffSplitsAtLargestGaps(t *testing.T) {
	// Two tight clusters with a huge gap: a 2-bin max-diff histogram must
	// put its boundary inside the gap.
	samples := []float64{1, 1.1, 1.2, 9, 9.1, 9.2}
	h, err := BuildMaxDiff(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	bounds := h.Bounds()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	if bounds[1] < 1.2 || bounds[1] > 9 {
		t.Fatalf("max-diff boundary %v not inside the gap", bounds[1])
	}
	counts := h.Counts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("counts = %v, want [3 3]", counts)
	}
}

func TestMaxDiffDegenerate(t *testing.T) {
	if _, err := BuildMaxDiff([]float64{2, 2, 2}, 3); err == nil {
		t.Fatal("constant sample should error")
	}
	if _, err := BuildMaxDiff(nil, 3); err == nil {
		t.Fatal("empty sample should error")
	}
}

func TestUniformEstimator(t *testing.T) {
	h, err := BuildUniform([]float64{1, 2, 3}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "uniform" || h.Bins() != 1 {
		t.Fatalf("uniform kind/bins = %s/%d", h.Kind(), h.Bins())
	}
	// Uniform assumption: σ̂ proportional to range width.
	if got := h.Selectivity(0, 5); !xmath.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("uniform σ̂ = %v, want 0.5", got)
	}
}

func TestASH(t *testing.T) {
	r := xrand.New(4)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = r.Float64() * 100
	}
	a, err := BuildASH(samples, 20, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shifts() != 10 || a.Name() != "ash" {
		t.Fatalf("Shifts/Name = %d/%s", a.Shifts(), a.Name())
	}
	// 10% interior query on uniform data.
	if got := a.Selectivity(40, 50); math.Abs(got-0.1) > 0.02 {
		t.Fatalf("ASH σ̂ = %v, want ~0.1", got)
	}
	// Density integrates to ~1 over the domain.
	mass := xmath.Simpson(a.Density, 0, 100, 20000)
	if math.Abs(mass-1) > 0.02 {
		t.Fatalf("ASH density mass = %v", mass)
	}
	if a.Selectivity(5, 2) != 0 {
		t.Fatal("inverted query should be 0")
	}
}

func TestASHValidation(t *testing.T) {
	if _, err := BuildASH(nil, 0, 1, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildASH(nil, 1, 0, 0, 1); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := BuildASH(nil, 1, 1, 1, 0); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestASHSmootherThanSingleHistogram(t *testing.T) {
	// ASH should reduce the jump-point artefacts: the max density jump
	// across a fine grid must be smaller than the single histogram's.
	r := xrand.New(5)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.Normal()*10 + 50
	}
	h, err := BuildEquiWidth(samples, 15, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildASH(samples, 15, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	maxJump := func(f func(float64) float64) float64 {
		prev := f(0.0)
		worst := 0.0
		for _, x := range xmath.Linspace(0.01, 100, 5000) {
			cur := f(x)
			if j := math.Abs(cur - prev); j > worst {
				worst = j
			}
			prev = cur
		}
		return worst
	}
	if maxJump(a.Density) >= maxJump(h.Density) {
		t.Fatalf("ASH max jump %v not below histogram %v", maxJump(a.Density), maxJump(h.Density))
	}
}

func TestVOptimal(t *testing.T) {
	// Step density: 80% of samples in [0,1], 20% in [9,10]. V-optimal with
	// few bins must isolate the two regions.
	r := xrand.New(6)
	samples := make([]float64, 1000)
	for i := range samples {
		if i < 800 {
			samples[i] = r.Float64()
		} else {
			samples[i] = 9 + r.Float64()
		}
	}
	h, err := BuildVOptimal(samples, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "v-optimal" {
		t.Fatalf("kind = %s", h.Kind())
	}
	// The empty middle should be carved out: selectivity of (2, 8) ≈ 0.
	if got := h.Selectivity(2, 8); got > 0.02 {
		t.Fatalf("empty-region σ̂ = %v, want ~0", got)
	}
	if got := h.Selectivity(0, 1.2); math.Abs(got-0.8) > 0.05 {
		t.Fatalf("dense-region σ̂ = %v, want ~0.8", got)
	}
}

func TestVOptimalValidation(t *testing.T) {
	if _, err := BuildVOptimal(nil, 3, 10); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := BuildVOptimal([]float64{1}, 0, 10); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildVOptimal([]float64{1, 1}, 2, 10); err == nil {
		t.Fatal("constant samples should error")
	}
}

// Property: selectivity is within [0,1], monotone under widening, additive
// over adjacent ranges.
func TestQuickHistogramInvariants(t *testing.T) {
	r := xrand.New(7)
	samples := make([]float64, 800)
	for i := range samples {
		samples[i] = r.Normal()*15 + 50
	}
	builders := map[string]func() (interface {
		Selectivity(a, b float64) float64
	}, error){
		"equi-width": func() (interface {
			Selectivity(a, b float64) float64
		}, error) {
			return BuildEquiWidth(samples, 17, 0, 100)
		},
		"equi-depth": func() (interface {
			Selectivity(a, b float64) float64
		}, error) {
			return BuildEquiDepthSorted(sortedCopy(samples), 17)
		},
		"max-diff": func() (interface {
			Selectivity(a, b float64) float64
		}, error) {
			return BuildMaxDiff(samples, 17)
		},
		"ash": func() (interface {
			Selectivity(a, b float64) float64
		}, error) {
			return BuildASH(samples, 17, 8, 0, 100)
		},
	}
	for name, build := range builders {
		est, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prop := func(rawA, rawW uint8) bool {
			a := float64(rawA) / 255 * 90
			w := float64(rawW) / 255 * 10
			m := a + w/3
			s := est.Selectivity(a, a+w)
			parts := est.Selectivity(a, m) + est.Selectivity(m, a+w)
			wide := est.Selectivity(a-1, a+w+1)
			return s >= 0 && s <= 1 &&
				wide >= s-1e-12 &&
				xmath.AlmostEqual(s, parts, 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
