package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

func TestBuildGrid2DValidation(t *testing.T) {
	if _, err := BuildGrid2D(nil, nil, 2, 2, 0, 1, 0, 1); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := BuildGrid2D([]float64{1}, []float64{1, 2}, 2, 2, 0, 1, 0, 1); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := BuildGrid2D([]float64{1}, []float64{1}, 0, 2, 0, 1, 0, 1); err == nil {
		t.Fatal("kx=0 should error")
	}
	if _, err := BuildGrid2D([]float64{1}, []float64{1}, 2, 2, 1, 1, 0, 1); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestGrid2DExactCells(t *testing.T) {
	// Four points, one per quadrant of [0,2]².
	xs := []float64{0.5, 1.5, 0.5, 1.5}
	ys := []float64{0.5, 0.5, 1.5, 1.5}
	g, err := BuildGrid2D(xs, ys, 2, 2, 0, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.kx != 2 || g.ky != 2 {
		t.Fatalf("cells = %d×%d", g.kx, g.ky)
	}
	// One full quadrant = 1/4 of the mass.
	if got := g.Selectivity(0, 1, 0, 1); !xmath.AlmostEqual(got, 0.25, 1e-12) {
		t.Fatalf("quadrant σ̂ = %v", got)
	}
	// Whole domain.
	if got := g.Selectivity(0, 2, 0, 2); !xmath.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("whole σ̂ = %v", got)
	}
	// Half a quadrant in x: uniform spread halves the cell mass.
	if got := g.Selectivity(0, 0.5, 0, 1); !xmath.AlmostEqual(got, 0.125, 1e-12) {
		t.Fatalf("half-cell σ̂ = %v", got)
	}
	if g.Selectivity(1, 0, 0, 1) != 0 {
		t.Fatal("inverted window should be 0")
	}
}

func TestGrid2DAccuracyUniform(t *testing.T) {
	r := xrand.New(1)
	n := 20000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 100
		ys[i] = r.Float64() * 100
	}
	g, err := BuildGrid2D(xs, ys, 10, 10, 0, 100, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 30×30 window on uniform data: σ = 0.09.
	if got := g.Selectivity(20, 50, 40, 70); math.Abs(got-0.09) > 0.01 {
		t.Fatalf("window σ̂ = %v, want ~0.09", got)
	}
}

func TestGrid2DIgnoresOutOfDomain(t *testing.T) {
	xs := []float64{0.5, 99}
	ys := []float64{0.5, 99}
	g, err := BuildGrid2D(xs, ys, 2, 2, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only the in-domain point counts; n stays 2 so mass outside is lost
	// (documented behaviour: ignored samples dilute, like the paper's
	// truncation of out-of-domain records).
	if got := g.Selectivity(0, 1, 0, 1); !xmath.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("σ̂ = %v, want 0.5", got)
	}
}

// Property: selectivity is within [0,1], monotone under window growth, and
// additive over an x-split.
func TestQuickGrid2DInvariants(t *testing.T) {
	r := xrand.New(2)
	n := 3000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = r.NormalMeanStd(50, 20)
		ys[i] = r.NormalMeanStd(50, 20)
	}
	g, err := BuildGrid2D(xs, ys, 8, 8, 0, 100, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawA, rawW uint8) bool {
		ax := float64(rawA) / 255 * 80
		w := float64(rawW) / 255 * 20
		mx := ax + w/2
		s := g.Selectivity(ax, ax+w, 30, 70)
		parts := g.Selectivity(ax, mx, 30, 70) + g.Selectivity(mx, ax+w, 30, 70)
		grown := g.Selectivity(ax-1, ax+w+1, 29, 71)
		return s >= 0 && s <= 1 && grown >= s-1e-12 && xmath.AlmostEqual(s, parts, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
