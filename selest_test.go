package selest_test

import (
	"math"
	"testing"

	"selest"
	"selest/internal/xrand"
)

func TestFacadeQuickstart(t *testing.T) {
	r := xrand.New(1)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = math.Floor(r.Float64() * (1 << 20))
	}
	est, err := selest.Build(samples, selest.Options{
		Method:   selest.Kernel,
		Boundary: selest.BoundaryKernels,
		DomainLo: 0,
		DomainHi: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10% interior query on uniform data.
	lo, hi := 0.45*(1<<20), 0.55*(1<<20)
	if got := est.Selectivity(lo, hi); math.Abs(got-0.1) > 0.03 {
		t.Fatalf("σ̂ = %v, want ~0.1", got)
	}
}

func TestFacadeAllMethodsExposed(t *testing.T) {
	want := []selest.Method{
		selest.Sampling, selest.Uniform, selest.EquiWidth, selest.EquiDepth,
		selest.MaxDiff, selest.VOptimal, selest.EndBiased, selest.Wavelet, selest.ASH, selest.FrequencyPolygon, selest.Kernel, selest.BetaKernel, selest.VariableKernel, selest.Hybrid,
	}
	got := selest.Methods()
	if len(got) != len(want) {
		t.Fatalf("Methods() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Methods()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFacadeRulesAndBoundaries(t *testing.T) {
	r := xrand.New(2)
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.NormalMeanStd(500, 100)
	}
	for i, v := range samples {
		if v < 0 {
			samples[i] = 0
		} else if v > 1000 {
			samples[i] = 1000
		}
	}
	for _, rule := range []selest.BandwidthRule{selest.NormalScale, selest.DPI, selest.LSCV} {
		for _, b := range []selest.BoundaryMode{selest.BoundaryNone, selest.BoundaryReflect, selest.BoundaryKernels} {
			est, err := selest.Build(samples, selest.Options{
				Method: selest.Kernel, Rule: rule, Boundary: b,
				DomainLo: 0, DomainHi: 1000,
			})
			if err != nil {
				t.Fatalf("rule=%s boundary=%s: %v", rule, b, err)
			}
			if s := est.Selectivity(400, 600); s < 0.4 || s > 0.9 {
				t.Fatalf("rule=%s boundary=%s: ±1σ σ̂ = %v", rule, b, s)
			}
		}
	}
}

func TestBuildRobustDegradesAndReports(t *testing.T) {
	samples := []float64{math.NaN(), math.Inf(1), 5, 5, 5, 5} // constant after scrubbing
	est, rep, err := selest.BuildRobust(samples, selest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sanitize.Dropped != 2 || !rep.Sanitize.Constant {
		t.Fatalf("sanitize report = %+v", rep.Sanitize)
	}
	if s := est.Selectivity(4, 6); s != 1 {
		t.Fatalf("point mass covering query = %v, want 1", s)
	}
}

func TestBuildRobustGuardsQueries(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i % 10) // heavy duplicates, still non-constant
	}
	est, _, err := selest.BuildRobust(samples, selest.Options{DomainLo: 0, DomainHi: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Inverted and NaN queries are normalized by the robust guard.
	if a, b := est.Selectivity(2, 7), est.Selectivity(7, 2); a != b {
		t.Fatalf("inverted query %v != forward %v", b, a)
	}
	if s := est.Selectivity(math.NaN(), 5); s != 0 {
		t.Fatalf("NaN query = %v, want 0", s)
	}
}
