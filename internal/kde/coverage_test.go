package kde

import (
	"testing"

	"selest/internal/xmath"
)

// Edge branches the main suites do not reach: clamp paths, out-of-domain
// density evaluations, and the linear evaluator's boundary-mode handling.

func TestSelectivityClampPaths(t *testing.T) {
	// Boundary kernels can push a near-full-domain estimate above 1
	// (clamped) and produce tiny negative lobes (clamped at 0).
	samples := uniformSamples(t, 200, 0, 10, 50)
	e, err := New(samples, Config{Bandwidth: 3, Boundary: BoundaryKernels, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Selectivity(0, 10); got > 1 || got < 0.95 {
		t.Fatalf("full-domain σ̂ = %v", got)
	}
	// The unclamped value is allowed outside [0,1].
	raw := e.SelectivityUnclamped(0, 10)
	if raw < 0.95 || raw > 1.1 {
		t.Fatalf("unclamped full-domain = %v", raw)
	}
}

func TestDensityOutsideDomainPerMode(t *testing.T) {
	samples := uniformSamples(t, 100, 0, 10, 51)
	for _, mode := range []BoundaryMode{BoundaryReflect, BoundaryKernels} {
		e, err := New(samples, Config{Bandwidth: 1, Boundary: mode, DomainLo: 0, DomainHi: 10})
		if err != nil {
			t.Fatal(err)
		}
		if d := e.Density(-0.5); d != 0 {
			t.Fatalf("%s: density below domain = %v", mode, d)
		}
		if d := e.Density(10.5); d != 0 {
			t.Fatalf("%s: density above domain = %v", mode, d)
		}
	}
}

func TestSelectivityLinearBoundaryModes(t *testing.T) {
	samples := uniformSamples(t, 300, 0, 10, 52)
	// Reflect mode: linear evaluator clips to the domain like the fast path.
	e, err := New(samples, Config{Bandwidth: 1, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.SelectivityLinear(-5, 15), e.Selectivity(-5, 15); !xmath.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("linear clipping: %v vs %v", got, want)
	}
	if e.SelectivityLinear(7, 3) != 0 {
		t.Fatal("linear inverted query should be 0")
	}
	// A reflect-mode query entirely outside the domain.
	if e.SelectivityLinear(20, 30) != 0 {
		t.Fatal("linear out-of-domain query should be 0")
	}
	// Boundary-kernel mode: the Θ(n) strip loops must agree with the
	// accelerated evaluator.
	bk, err := New(samples, Config{Bandwidth: 1, Boundary: BoundaryKernels, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bk.SelectivityLinear(2, 5), bk.Selectivity(2, 5); !xmath.AlmostEqual(got, want, 1e-9) {
		t.Fatalf("boundary-kernel linear reference: %v vs %v", got, want)
	}
}

func TestEstimator2DInvertedAndOutOfDomain(t *testing.T) {
	e, err := New2D([]float64{1, 2}, []float64{1, 2}, Config2D{
		BandwidthX: 1, BandwidthY: 1, Reflect: true, LoX: 0, HiX: 3, LoY: 0, HiY: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Selectivity(2, 1, 0, 3) != 0 {
		t.Fatal("inverted x should be 0")
	}
	if e.Selectivity(0, 3, 2, 1) != 0 {
		t.Fatal("inverted y should be 0")
	}
	if e.Selectivity(10, 20, 10, 20) != 0 {
		t.Fatal("out-of-domain window should be 0")
	}
	if e.Density(-1, 1) != 0 || e.Density(1, 4) != 0 {
		t.Fatal("out-of-domain density should be 0")
	}
}

func TestVariableSelectivityClipping(t *testing.T) {
	samples := uniformSamples(t, 200, 0, 10, 53)
	e, err := fitVariable(samples, VariableConfig{PilotBandwidth: 1, Reflect: true, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Selectivity(-5, 15), e.Selectivity(0, 10); !xmath.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("variable clipping: %v vs %v", got, want)
	}
	if e.Selectivity(20, 30) != 0 {
		t.Fatal("out-of-domain variable query should be 0")
	}
	if e.Selectivity(7, 3) != 0 {
		t.Fatal("inverted variable query should be 0")
	}
	if e.Density(-1) != 0 || e.Density(11) != 0 {
		t.Fatal("out-of-domain variable density should be 0")
	}
}
