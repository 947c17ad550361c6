package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimpsonCubicExact(t *testing.T) {
	// Simpson's rule is exact for cubics.
	got := Simpson(func(x float64) float64 { return x * x * x }, 0, 2, 4)
	if !AlmostEqual(got, 4, 1e-12) {
		t.Fatalf("Simpson(x^3, 0, 2) = %v, want 4", got)
	}
}

func TestSimpsonOddNRoundedUp(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x * x }, 0, 3, 5)
	if !AlmostEqual(got, 9, 1e-10) {
		t.Fatalf("Simpson(x^2, 0, 3) with odd n = %v, want 9", got)
	}
}

func TestSimpsonSine(t *testing.T) {
	got := Simpson(math.Sin, 0, math.Pi, 200)
	if !AlmostEqual(got, 2, 1e-8) {
		t.Fatalf("Simpson(sin, 0, pi) = %v, want 2", got)
	}
}

func TestIntegrateSamples(t *testing.T) {
	ys := []float64{0, 1, 2, 3, 4} // y = x on [0,4], dx = 1
	if got := IntegrateSamples(ys, 1); !AlmostEqual(got, 8, 1e-12) {
		t.Fatalf("IntegrateSamples = %v, want 8", got)
	}
}

func TestIntegrateSamplesDegenerate(t *testing.T) {
	if got := IntegrateSamples(nil, 1); got != 0 {
		t.Fatalf("IntegrateSamples(nil) = %v, want 0", got)
	}
	if got := IntegrateSamples([]float64{5}, 1); got != 0 {
		t.Fatalf("IntegrateSamples(single) = %v, want 0", got)
	}
}

// Property: splitting an integral at an interior point is additive.
func TestQuickSimpsonAdditive(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) + 0.3*x }
	prop := func(seed uint32) bool {
		a := float64(seed%100) / 10
		m := a + 0.5
		b := a + 1.5
		whole := Simpson(f, a, b, 400)
		parts := Simpson(f, a, m, 400) + Simpson(f, m, b, 400)
		return AlmostEqual(whole, parts, 1e-8)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
