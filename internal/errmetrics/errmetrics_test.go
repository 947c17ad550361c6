package errmetrics

import (
	"math"
	"testing"

	"selest/internal/query"
)

// constEstimator returns a fixed selectivity for every query.
type constEstimator float64

func (c constEstimator) Selectivity(a, b float64) float64 { return float64(c) }

// exactEstimator returns the true selectivity from a workload lookup.
type exactEstimator struct{ w *query.Workload }

func (e exactEstimator) Selectivity(a, b float64) float64 {
	for i, q := range e.w.Queries {
		if q.A == a && q.B == b {
			return e.w.TrueSelectivity(i)
		}
	}
	return 0
}

func makeWorkload() *query.Workload {
	return &query.Workload{
		Queries:    []query.Query{{A: 0, B: 10}, {A: 10, B: 20}, {A: 20, B: 30}},
		TrueCounts: []int{100, 50, 0},
		SizeFrac:   0.1,
		N:          1000,
	}
}

func TestMREPerfectEstimator(t *testing.T) {
	w := makeWorkload()
	mre, skipped := MRE(exactEstimator{w}, w)
	if mre != 0 {
		t.Fatalf("perfect estimator MRE = %v, want 0", mre)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the empty query)", skipped)
	}
}

func TestMREConstEstimator(t *testing.T) {
	w := makeWorkload()
	// σ̂ = 0.1 → est counts 100: errors |100−100|/100 = 0, |50−100|/50 = 1.
	mre, skipped := MRE(constEstimator(0.1), w)
	if math.Abs(mre-0.5) > 1e-12 {
		t.Fatalf("MRE = %v, want 0.5", mre)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d", skipped)
	}
}

func TestMREAllEmpty(t *testing.T) {
	w := &query.Workload{
		Queries:    []query.Query{{A: 0, B: 1}},
		TrueCounts: []int{0},
		N:          10,
	}
	mre, skipped := MRE(constEstimator(0), w)
	if !math.IsNaN(mre) || skipped != 1 {
		t.Fatalf("all-empty workload: MRE=%v skipped=%d", mre, skipped)
	}
}

func TestByPosition(t *testing.T) {
	w := makeWorkload()
	points := ByPosition(constEstimator(0.1), w)
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].Pos != 0 || points[0].Signed != 0 {
		t.Fatalf("point 0 = %+v", points[0])
	}
	if points[1].Signed != 50 {
		t.Fatalf("point 1 signed = %v, want 50", points[1].Signed)
	}
	if points[1].Relative != 1 {
		t.Fatalf("point 1 relative = %v, want 1", points[1].Relative)
	}
	if !math.IsNaN(points[2].Relative) {
		t.Fatal("empty-query relative error must be NaN")
	}
	if points[2].Signed != 100 {
		t.Fatalf("point 2 signed = %v, want 100", points[2].Signed)
	}
}
