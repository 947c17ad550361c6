package histogram

import (
	"math"
	"slices"
	"testing"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

// duplicateHeavy builds a sample, sorted ascending, where value 100 holds
// 50% of the mass, value 200 holds 25%, and the rest is uniform on
// [0, 1000].
func duplicateHeavy(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		u := r.Float64()
		switch {
		case u < 0.5:
			out[i] = 100
		case u < 0.75:
			out[i] = 200
		default:
			out[i] = math.Floor(r.Float64() * 1000)
		}
	}
	slices.Sort(out)
	return out
}

func TestBuildEndBiasedValidation(t *testing.T) {
	if _, err := BuildEndBiased(nil, 1, 1, 0, 1); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := BuildEndBiased([]float64{1}, 0, 1, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildEndBiased([]float64{1}, 1, 0, 0, 1); err == nil {
		t.Fatal("restBins=0 should error")
	}
	if _, err := BuildEndBiased([]float64{1}, 1, 1, 5, 5); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestEndBiasedSingletonsExact(t *testing.T) {
	samples := duplicateHeavy(4000, 1)
	e, err := BuildEndBiased(samples, 2, 20, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.singles) != 2 {
		t.Fatalf("singletons = %d", len(e.singles))
	}
	if 1-e.restPor < 0.7 {
		t.Fatalf("singleton mass = %v, want ~0.75", 1-e.restPor)
	}
	// A point query on the heavy value is answered exactly from the sample.
	var exact float64
	for _, v := range samples {
		if v == 100 {
			exact++
		}
	}
	exact /= float64(len(samples))
	if got := e.Selectivity(100, 100); !xmath.AlmostEqual(got, exact, 1e-12) {
		t.Fatalf("singleton point query = %v, want exactly %v", got, exact)
	}
	// A range excluding both heavy values sees only the rest mass.
	if got := e.Selectivity(300, 400); got > 0.1 {
		t.Fatalf("rest-range σ̂ = %v, want small", got)
	}
}

func TestEndBiasedBeatsEquiWidthOnHeavyDuplicates(t *testing.T) {
	samples := duplicateHeavy(4000, 2)
	eb, err := BuildEndBiased(samples, 5, 20, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := BuildEquiWidth(samples, 25, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from a much larger draw of the same process.
	ref := duplicateHeavy(400000, 3)
	trueSel := func(a, b float64) float64 {
		c := 0
		for _, v := range ref {
			if v >= a && v <= b {
				c++
			}
		}
		return float64(c) / float64(len(ref))
	}
	// Narrow queries around the heavy values are where end-biasing pays.
	var ebErr, ewErr float64
	for _, q := range [][2]float64{{95, 105}, {195, 205}, {90, 110}, {190, 210}} {
		ts := trueSel(q[0], q[1])
		ebErr += math.Abs(eb.Selectivity(q[0], q[1])-ts) / ts
		ewErr += math.Abs(ew.Selectivity(q[0], q[1])-ts) / ts
	}
	if ebErr >= ewErr/2 {
		t.Fatalf("end-biased error %v not well below equi-width %v around heavy values", ebErr, ewErr)
	}
}

func TestEndBiasedAllSingletons(t *testing.T) {
	// k larger than the number of distinct values: everything is a
	// singleton and there is no rest histogram.
	samples := []float64{1, 1, 2, 2, 3}
	e, err := BuildEndBiased(samples, 10, 5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.singles) != 3 {
		t.Fatalf("singletons = %d, want 3", len(e.singles))
	}
	if got := e.Selectivity(0, 10); !xmath.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("whole-domain σ̂ = %v", got)
	}
	if got := e.Selectivity(1, 2); !xmath.AlmostEqual(got, 0.8, 1e-12) {
		t.Fatalf("σ̂(1,2) = %v, want 0.8", got)
	}
}

func TestEndBiasedAccessors(t *testing.T) {
	e, err := BuildEndBiased([]float64{1, 1, 2}, 1, 4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "end-biased" || e.SampleSize() != 3 {
		t.Fatalf("accessors: %s %d", e.Name(), e.SampleSize())
	}
	if e.Selectivity(5, 1) != 0 {
		t.Fatal("inverted query should be 0")
	}
}

func TestEndBiasedDeterministicTies(t *testing.T) {
	// Equal frequencies: the singleton choice must be deterministic
	// (smallest values win ties).
	samples := []float64{1, 1, 2, 2, 3, 3, 9}
	a, err := BuildEndBiased(samples, 2, 4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEndBiased(samples, 2, 4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{1, 1}, {2, 2}, {3, 3}, {0, 10}} {
		if a.Selectivity(q[0], q[1]) != b.Selectivity(q[0], q[1]) {
			t.Fatal("tie-breaking not deterministic")
		}
	}
	// Values 1 and 2 (smallest among the tied {1,2,3}) are the singletons.
	if got := a.Selectivity(1, 1); !xmath.AlmostEqual(got, 2.0/7.0, 1e-12) {
		t.Fatalf("σ̂(1,1) = %v", got)
	}
}
