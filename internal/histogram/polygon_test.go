package histogram

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

func TestBuildFrequencyPolygonValidation(t *testing.T) {
	if _, err := BuildFrequencyPolygon(nil, 0, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildFrequencyPolygon([]float64{1}, 4, 2, 2); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestPolygonDensityContinuous(t *testing.T) {
	r := xrand.New(1)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = r.NormalMeanStd(500, 100)
	}
	slices.Sort(samples)
	fp, err := BuildFrequencyPolygon(samples, 20, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildEquiWidth(samples, 20, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The polygon removes the jump points: its max step across a fine grid
	// must be far below the raw histogram's.
	maxJump := func(f func(float64) float64) float64 {
		worst, prev := 0.0, f(0.0)
		for _, x := range xmath.Linspace(0.2, 1000, 5000) {
			cur := f(x)
			if j := math.Abs(cur - prev); j > worst {
				worst = j
			}
			prev = cur
		}
		return worst
	}
	if pj, hj := maxJump(fp.Density), maxJump(h.Density); pj > hj/5 {
		t.Fatalf("polygon max jump %v not ≪ histogram %v", pj, hj)
	}
}

func TestPolygonUnitMass(t *testing.T) {
	r := xrand.New(2)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.Float64() * 100
	}
	slices.Sort(samples)
	fp, err := BuildFrequencyPolygon(samples, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The polygon construction preserves unit mass over its extended
	// support [lo−w/2, hi+w/2].
	mass := xmath.Simpson(fp.Density, -10, 110, 20000)
	if !xmath.AlmostEqual(mass, 1, 1e-3) {
		t.Fatalf("polygon mass = %v", mass)
	}
	// And Selectivity over the whole extended support agrees.
	if got := fp.Selectivity(-10, 110); !xmath.AlmostEqual(got, 1, 1e-9) {
		t.Fatalf("whole-support σ̂ = %v", got)
	}
}

func TestPolygonSelectivityMatchesDensityIntegral(t *testing.T) {
	r := xrand.New(3)
	samples := make([]float64, 800)
	for i := range samples {
		samples[i] = r.Exponential(0.05)
	}
	slices.Sort(samples)
	fp, err := BuildFrequencyPolygon(samples, 15, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0, 10}, {5, 40}, {60, 120}} {
		want := xmath.Simpson(fp.Density, q[0], q[1], 8000)
		got := fp.Selectivity(q[0], q[1])
		if !xmath.AlmostEqual(got, want, 1e-4) {
			t.Fatalf("σ̂(%v,%v) = %v, ∫f̂ = %v", q[0], q[1], got, want)
		}
	}
}

func TestPolygonMoreAccurateThanHistogramOnSmoothData(t *testing.T) {
	// Scott's result in practice: at equal bins on smooth data, the
	// polygon's density error beats the histogram's.
	r := xrand.New(4)
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = r.NormalMeanStd(500, 100)
	}
	truth := func(x float64) float64 {
		z := (x - 500) / 100
		return math.Exp(-z*z/2) / (100 * math.Sqrt(2*math.Pi))
	}
	ise := func(f func(float64) float64) float64 {
		return xmath.Simpson(func(x float64) float64 {
			d := f(x) - truth(x)
			return d * d
		}, 100, 900, 4000)
	}
	slices.Sort(samples)
	fp, err := BuildFrequencyPolygon(samples, 25, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildEquiWidth(samples, 25, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pe, he := ise(fp.Density), ise(h.Density); pe >= he {
		t.Fatalf("polygon ISE %v not below histogram ISE %v", pe, he)
	}
}

func TestPolygonAccessors(t *testing.T) {
	fp, err := BuildFrequencyPolygon([]float64{1, 2, 3}, 4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bins() != 4 || fp.SampleSize() != 3 {
		t.Fatal("accessors wrong")
	}
	if fp.Name() != "frequency-polygon" {
		t.Fatalf("Name = %q", fp.Name())
	}
	if fp.Selectivity(5, 2) != 0 {
		t.Fatal("inverted query should be 0")
	}
}

// Property: polygon selectivity invariants.
func TestQuickPolygonInvariants(t *testing.T) {
	r := xrand.New(5)
	samples := make([]float64, 600)
	for i := range samples {
		samples[i] = r.Float64() * 100
	}
	slices.Sort(samples)
	fp, err := BuildFrequencyPolygon(samples, 12, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawA, rawW uint8) bool {
		a := float64(rawA) / 255 * 90
		w := float64(rawW) / 255 * 10
		m := a + w/2
		s := fp.Selectivity(a, a+w)
		parts := fp.Selectivity(a, m) + fp.Selectivity(m, a+w)
		return s >= 0 && s <= 1 && xmath.AlmostEqual(s, parts, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
