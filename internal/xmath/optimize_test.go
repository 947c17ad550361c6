package xmath

import (
	"math"
	"testing"
)

func TestGridMin(t *testing.T) {
	x, fx := GridMin(func(x float64) float64 { return math.Abs(x - 3) }, 0, 10, 101)
	if !AlmostEqual(x, 3, 1e-9) || !AlmostEqual(fx, 0, 1e-9) {
		t.Fatalf("GridMin = (%v, %v), want (3, 0)", x, fx)
	}
}

func TestGridMinClampsN(t *testing.T) {
	x, _ := GridMin(func(x float64) float64 { return x }, 0, 1, 0)
	if x != 0 {
		t.Fatalf("GridMin with n=0 picked %v, want endpoint 0", x)
	}
}

func TestLogGridMin(t *testing.T) {
	// Minimum of AMISE-like curve c1/x + c2*x^2 is at (c1/(2 c2))^(1/3).
	f := func(h float64) float64 { return 1/h + h*h }
	want := math.Pow(0.5, 1.0/3.0)
	x, _ := LogGridMin(f, 1e-3, 1e3, 4001)
	if !AlmostEqual(x, want, 1e-2) {
		t.Fatalf("LogGridMin = %v, want %v", x, want)
	}
}

func TestLogGridMinNonPositiveFallsBack(t *testing.T) {
	x, _ := LogGridMin(func(x float64) float64 { return (x + 1) * (x + 1) }, -2, 2, 401)
	if !AlmostEqual(x, -1, 1e-2) {
		t.Fatalf("LogGridMin fallback = %v, want -1", x)
	}
}

func TestDerivative(t *testing.T) {
	got := Derivative(math.Sin, 0.7, 0)
	if !AlmostEqual(got, math.Cos(0.7), 1e-7) {
		t.Fatalf("Derivative(sin, 0.7) = %v, want %v", got, math.Cos(0.7))
	}
}

func TestSecondDerivative(t *testing.T) {
	got := SecondDerivative(math.Exp, 1, 0)
	if !AlmostEqual(got, math.E, 1e-4) {
		t.Fatalf("SecondDerivative(exp, 1) = %v, want e", got)
	}
}

func TestGradientTable(t *testing.T) {
	// y = x^2 on grid 0..4: derivative should be 2x in the interior.
	ys := []float64{0, 1, 4, 9, 16}
	g := GradientTable(ys, 1)
	for i, want := range []float64{1, 2, 4, 6, 7} {
		if !AlmostEqual(g[i], want, 1e-12) {
			t.Fatalf("GradientTable[%d] = %v, want %v", i, g[i], want)
		}
	}
}

func TestGradientTableDegenerate(t *testing.T) {
	if g := GradientTable([]float64{1}, 1); len(g) != 1 || g[0] != 0 {
		t.Fatalf("GradientTable(single) = %v", g)
	}
}

func TestSecondDerivativeTable(t *testing.T) {
	// y = x^2 has constant second derivative 2.
	ys := []float64{0, 1, 4, 9, 16}
	s := SecondDerivativeTable(ys, 1)
	for i, v := range s {
		if !AlmostEqual(v, 2, 1e-12) {
			t.Fatalf("SecondDerivativeTable[%d] = %v, want 2", i, v)
		}
	}
}
