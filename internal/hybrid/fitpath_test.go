package hybrid

import (
	"errors"
	"math"
	"slices"
	"testing"

	"selest/internal/errs"
	"selest/internal/xrand"
)

// clustered draws a three-cluster sample of n points, sorted ascending as
// New takes them.
func clustered(t testing.TB, n int, seed uint64) []float64 {
	t.Helper()
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = 100 + r.Float64()*50
		case 1:
			xs[i] = 400 + r.Float64()*10
		default:
			xs[i] = 700 + r.Float64()*200
		}
	}
	slices.Sort(xs)
	return xs
}

// TestConfigValidateRejectsNegatives covers the defaulting bug: the seed
// only replaced zero values, so negative settings sailed through (a
// negative GridSize panicked inside the change-point scan).
func TestConfigValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative-changepoints", Config{MaxChangePoints: -1}},
		{"negative-minbinfraction", Config{MinBinFraction: -0.5}},
		{"nan-minbinfraction", Config{MinBinFraction: math.NaN()}},
		{"minbinfraction-one", Config{MinBinFraction: 1}},
		{"minbinfraction-above-one", Config{MinBinFraction: 1.5}},
		{"negative-gridsize", Config{GridSize: -100}},
	}
	samples := clustered(t, 500, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, errs.ErrBadOption) {
				t.Fatalf("Validate() = %v, want errs.ErrBadOption", err)
			}
			if _, err := New(samples, 0, 1000, tc.cfg); !errors.Is(err, errs.ErrBadOption) {
				t.Fatalf("New() = %v, want errs.ErrBadOption", err)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate clean, got %v", err)
	}
}

// TestTinyGridSizeClamped pins the clamp: a positive but too-coarse grid
// is raised to 8 points instead of crashing the second-derivative table.
func TestTinyGridSizeClamped(t *testing.T) {
	samples := clustered(t, 500, 2)
	for _, gs := range []int{1, 2, 7} {
		e, err := New(samples, 0, 1000, Config{GridSize: gs})
		if err != nil {
			t.Fatalf("GridSize=%d: %v", gs, err)
		}
		if e.Bins() < 1 {
			t.Fatalf("GridSize=%d: no bins", gs)
		}
	}
}

// TestWorkersBitIdentical is the determinism pin for the parallel bin
// fill: the estimator must be indistinguishable at every worker count —
// same change points, same bins, bit-identical selectivities.
func TestWorkersBitIdentical(t *testing.T) {
	samples := clustered(t, 3000, 3)
	base, err := New(samples, 0, 1000, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	queries := make([][2]float64, 120)
	for i := range queries {
		a := r.Float64() * 1000
		b := a + r.Float64()*(1000-a)
		queries[i] = [2]float64{a, b}
	}
	for _, workers := range []int{2, 8} {
		e, err := New(samples, 0, 1000, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if e.Bins() != base.Bins() {
			t.Fatalf("workers=%d: %d bins != %d", workers, e.Bins(), base.Bins())
		}
		bp, ep := base.ChangePoints(), e.ChangePoints()
		if len(bp) != len(ep) {
			t.Fatalf("workers=%d: %d change points != %d", workers, len(ep), len(bp))
		}
		for i := range bp {
			if bp[i] != ep[i] {
				t.Fatalf("workers=%d: change point %d: %v != %v", workers, i, ep[i], bp[i])
			}
		}
		for _, q := range queries {
			if a, b := base.Selectivity(q[0], q[1]), e.Selectivity(q[0], q[1]); a != b {
				t.Fatalf("workers=%d: Selectivity(%v,%v) %v != %v", workers, q[0], q[1], b, a)
			}
		}
		for x := 0.0; x <= 1000; x += 13 {
			if a, b := base.Density(x), e.Density(x); a != b {
				t.Fatalf("workers=%d: Density(%v) %v != %v", workers, x, b, a)
			}
		}
	}
}
