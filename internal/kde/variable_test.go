package kde

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

// clusteredSamples draws from two clusters of very different widths plus
// a sparse tail — the regime adaptive bandwidths exist for.
func clusteredSamples(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		switch {
		case r.Float64() < 0.5:
			out[i] = r.NormalMeanStd(200, 5) // razor-sharp cluster
		case r.Float64() < 0.8:
			out[i] = r.NormalMeanStd(600, 50) // broad cluster
		default:
			out[i] = r.UniformRange(0, 1000) // diffuse background
		}
		out[i] = xmath.Clamp(out[i], 0, 1000)
	}
	return out
}

// fitVariable fits a variable-bandwidth estimator through a fit context
// over samples, the one way to build one.
func fitVariable(samples []float64, cfg VariableConfig) (*VariableEstimator, error) {
	ctx, err := NewFitContext(samples)
	if err != nil {
		return nil, err
	}
	return ctx.NewVariableEstimator(cfg)
}

func TestNewVariableValidation(t *testing.T) {
	if _, err := fitVariable(nil, VariableConfig{PilotBandwidth: 1}); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := fitVariable([]float64{1}, VariableConfig{PilotBandwidth: 0}); err == nil {
		t.Fatal("zero pilot bandwidth should error")
	}
	if _, err := fitVariable([]float64{1}, VariableConfig{PilotBandwidth: 1, Sensitivity: 2}); err == nil {
		t.Fatal("sensitivity > 1 should error")
	}
	if _, err := fitVariable([]float64{1}, VariableConfig{PilotBandwidth: 1, Reflect: true}); err == nil {
		t.Fatal("reflection without domain should error")
	}
	if _, err := fitVariable([]float64{5}, VariableConfig{PilotBandwidth: 1, Reflect: true, DomainLo: 0, DomainHi: 1}); err == nil {
		t.Fatal("samples outside domain should error")
	}
}

func TestVariableBandwidthsAdapt(t *testing.T) {
	samples := clusteredSamples(2000, 1)
	e, err := fitVariable(samples, VariableConfig{PilotBandwidth: 30})
	if err != nil {
		t.Fatal(err)
	}
	hs := e.hs
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	// Mean bandwidth inside the sharp cluster must be well below the mean
	// bandwidth in the diffuse background.
	var sharpSum, sharpN, bgSum, bgN float64
	for i, x := range sorted {
		switch {
		case x > 185 && x < 215:
			sharpSum += hs[i]
			sharpN++
		case x > 800 && x < 1000:
			bgSum += hs[i]
			bgN++
		}
	}
	if sharpN == 0 || bgN == 0 {
		t.Fatal("test data degenerate")
	}
	if sharpSum/sharpN >= 0.5*bgSum/bgN {
		t.Fatalf("bandwidths did not adapt: sharp %v vs background %v", sharpSum/sharpN, bgSum/bgN)
	}
}

func TestVariableDensityIntegratesToOne(t *testing.T) {
	samples := clusteredSamples(800, 2)
	for _, reflect := range []bool{false, true} {
		e, err := fitVariable(samples, VariableConfig{
			PilotBandwidth: 25, Reflect: reflect, DomainLo: 0, DomainHi: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := -200.0, 1200.0
		if reflect {
			lo, hi = 0, 1000
		}
		mass := xmath.Simpson(e.Density, lo, hi, 8000)
		if math.Abs(mass-1) > 0.01 {
			t.Fatalf("reflect=%v: density mass = %v", reflect, mass)
		}
	}
}

func TestVariableSelectivityMatchesDensityIntegral(t *testing.T) {
	samples := clusteredSamples(500, 3)
	e, err := fitVariable(samples, VariableConfig{PilotBandwidth: 25, Reflect: true, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0, 100}, {150, 250}, {500, 700}, {900, 1000}} {
		want := xmath.Simpson(e.Density, q[0], q[1], 8000)
		got := e.Selectivity(q[0], q[1])
		if !xmath.AlmostEqual(got, want, 2e-3) {
			t.Fatalf("σ̂(%v,%v) = %v, ∫f̂ = %v", q[0], q[1], got, want)
		}
	}
}

func TestVariableZeroSensitivityMatchesFixed(t *testing.T) {
	// α→0 recovers the fixed-bandwidth estimator exactly. The config
	// treats 0 as "default", so probe with a tiny α instead.
	samples := clusteredSamples(400, 4)
	v, err := fitVariable(samples, VariableConfig{PilotBandwidth: 30, Sensitivity: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(samples, Config{Bandwidth: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{100, 300}, {400, 800}} {
		a, b := v.Selectivity(q[0], q[1]), f.Selectivity(q[0], q[1])
		if !xmath.AlmostEqual(a, b, 1e-6) {
			t.Fatalf("α≈0 variable %v != fixed %v", a, b)
		}
	}
}

func TestVariableBeatsFixedOnMixedScales(t *testing.T) {
	// On data whose clusters have very different widths, one fixed
	// bandwidth cannot fit both; the adaptive estimator must achieve lower
	// integrated squared error against a huge-sample reference histogram.
	train := clusteredSamples(2000, 5)
	ref := clusteredSamples(400000, 6)
	sort.Float64s(ref)
	refSel := func(a, b float64) float64 {
		lo := sort.SearchFloat64s(ref, a)
		hi := sort.Search(len(ref), func(i int) bool { return ref[i] > b })
		return float64(hi-lo) / float64(len(ref))
	}

	v, err := fitVariable(train, VariableConfig{PilotBandwidth: 30, Reflect: true, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(train, Config{Bandwidth: 30, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var vErr, fErr float64
	queries := 0
	for a := 0.0; a < 990; a += 7 {
		b := a + 10
		truth := refSel(a, b)
		if truth == 0 {
			continue
		}
		vErr += math.Abs(v.Selectivity(a, b)-truth) / truth
		fErr += math.Abs(f.Selectivity(a, b)-truth) / truth
		queries++
	}
	if vErr >= fErr {
		t.Fatalf("variable bandwidth MRE %.4f not below fixed %.4f", vErr/float64(queries), fErr/float64(queries))
	}
}

func TestVariableAccessors(t *testing.T) {
	e, err := fitVariable([]float64{1, 2, 3}, VariableConfig{PilotBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.SampleSize() != 3 {
		t.Fatal("SampleSize wrong")
	}
	if e.Name() != "variable-kernel(epanechnikov)" {
		t.Fatalf("Name = %q", e.Name())
	}
	if len(e.hs) != 3 {
		t.Fatal("Bandwidths wrong length")
	}
}

func TestVariableConstantSample(t *testing.T) {
	// All duplicates: the pilot density floor must keep bandwidths finite.
	e, err := fitVariable([]float64{5, 5, 5, 5}, VariableConfig{PilotBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Selectivity(4, 6); got < 0.9 {
		t.Fatalf("constant-sample σ̂(4,6) = %v", got)
	}
}

// Property: selectivity ∈ [0,1], monotone under widening, additive.
func TestQuickVariableInvariants(t *testing.T) {
	samples := clusteredSamples(500, 7)
	e, err := fitVariable(samples, VariableConfig{PilotBandwidth: 30, Reflect: true, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawA, rawW uint8) bool {
		a := float64(rawA) / 255 * 900
		w := float64(rawW) / 255 * 100
		m := a + w/2
		s := e.Selectivity(a, a+w)
		parts := e.Selectivity(a, m) + e.Selectivity(m, a+w)
		wide := e.Selectivity(a-10, a+w+10)
		return s >= 0 && s <= 1 && wide >= s-1e-12 && xmath.AlmostEqual(s, parts, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
