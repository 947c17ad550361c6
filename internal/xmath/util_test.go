package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("Linspace length = %d, want %d", len(xs), len(want))
	}
	for i := range want {
		if !AlmostEqual(xs[i], want[i], 1e-12) {
			t.Fatalf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestLinspaceEndpointExact(t *testing.T) {
	xs := Linspace(0, 0.3, 7)
	if xs[len(xs)-1] != 0.3 {
		t.Fatalf("last element = %v, want exactly 0.3", xs[len(xs)-1])
	}
}

func TestLinspaceDegenerate(t *testing.T) {
	if xs := Linspace(2, 9, 1); len(xs) != 1 || xs[0] != 2 {
		t.Fatalf("Linspace(n=1) = %v", xs)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-13, 1e-9) {
		t.Error("near-identical values should compare equal")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("distant values should not compare equal")
	}
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN must never compare equal")
	}
	if !AlmostEqual(1e18, 1e18+1, 1e-9) {
		t.Error("relative tolerance should kick in for large magnitudes")
	}
}

// Property: Clamp output is always within bounds and idempotent.
func TestQuickClamp(t *testing.T) {
	prop := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		c := Clamp(v, -1, 1)
		return c >= -1 && c <= 1 && Clamp(c, -1, 1) == c
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Linspace is monotone for a < b.
func TestQuickLinspaceMonotone(t *testing.T) {
	prop := func(seed uint8) bool {
		a := float64(seed) - 128
		b := a + 1 + float64(seed%13)
		xs := Linspace(a, b, 50)
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				return false
			}
		}
		return xs[0] == a && xs[len(xs)-1] == b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
