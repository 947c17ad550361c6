package core

import (
	"testing"

	"selest/internal/kde"
)

// Degenerate-input branches of Build and the parameter resolvers.

func TestBuildDegenerateSamplesPerMethod(t *testing.T) {
	constSamples := []float64{5, 5, 5, 5}
	for _, m := range Methods() {
		_, err := Build(constSamples, Options{Method: m, DomainLo: 0, DomainHi: 10})
		// Constant samples break rule-derived parameters for most methods;
		// whichever way each method resolves, it must not panic, and
		// methods that need interval structure must error.
		switch m {
		case Sampling, Uniform, Wavelet, Hybrid:
			if err != nil {
				t.Fatalf("%s should tolerate constant samples: %v", m, err)
			}
		default:
			if err == nil {
				t.Logf("%s accepted constant samples (fixed-parameter path)", m)
			}
		}
	}
}

func TestBuildFixedBinsBypassesRules(t *testing.T) {
	// With Bins set, histogram methods accept constant-scale samples that
	// would break the normal scale rule.
	samples := []float64{1, 1, 1, 1, 2}
	est, err := Build(samples, Options{Method: EquiWidth, Bins: 4, DomainLo: 0, DomainHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s := est.Selectivity(0, 10); s < 0.99 {
		t.Fatalf("whole-domain σ̂ = %v", s)
	}
}

func TestBuildDPIRuleForHistogram(t *testing.T) {
	samples := testSamples(1000, 20)
	est, err := Build(samples, Options{Method: EquiWidth, Rule: DPI, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s := est.Selectivity(450, 550); s < 0.05 || s > 0.15 {
		t.Fatalf("DPI-binned EWH σ̂ = %v", s)
	}
}

func TestBuildVariableKernelBoundary(t *testing.T) {
	samples := testSamples(500, 22)
	// BoundaryKernels maps to reflection for the variable-kernel method
	// (the Simonoff–Dong family is fixed-bandwidth-only).
	est, err := Build(samples, Options{Method: VariableKernel, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s := est.Selectivity(0, 1000); s < 0.95 {
		t.Fatalf("whole-domain σ̂ = %v", s)
	}
}

func TestKernelBandwidthLSCVPath(t *testing.T) {
	ctx, err := kde.NewFitContext(testSamples(400, 25))
	if err != nil {
		t.Fatal(err)
	}
	h, err := kernelBandwidth(ctx, Options{Rule: LSCV, DomainLo: 0, DomainHi: 1000}, Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Fatalf("LSCV bandwidth = %v", h)
	}
}
