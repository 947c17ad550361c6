package kde

import (
	"math"
	"sort"
	"testing"

	"selest/internal/xmath"
	"selest/internal/xrand"
)

// TestFitContextBitIdentical pins the context's core guarantee:
// estimators fitted through a shared FitContext answer exactly — bit for
// bit — what kde.New over the same samples answers, in every boundary
// mode. The context only removes redundant sorting/indexing work; it must
// not perturb a single result.
func TestFitContextBitIdentical(t *testing.T) {
	r := xrand.New(321)
	for _, c := range momentCorpus(t) {
		ctx, err := NewFitContext(c.samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels} {
			for _, hFrac := range []float64{0.01, 0.2} {
				cfg := Config{Bandwidth: (c.hi - c.lo) * hFrac, Boundary: mode, DomainLo: c.lo, DomainHi: c.hi}
				direct, err := New(c.samples, cfg)
				if err != nil {
					t.Fatalf("%s: New: %v", c.name, err)
				}
				shared, err := ctx.NewEstimator(cfg)
				if err != nil {
					t.Fatalf("%s: NewEstimator: %v", c.name, err)
				}
				for _, q := range queriesFor(r, c.lo, c.hi, cfg.Bandwidth, 40) {
					if a, b := direct.Selectivity(q.A, q.B), shared.Selectivity(q.A, q.B); a != b {
						t.Fatalf("%s mode=%d: Selectivity(%v,%v) %v != %v", c.name, mode, q.A, q.B, a, b)
					}
				}
				for _, x := range xmath.Linspace(c.lo, c.hi, 33) {
					if a, b := direct.Density(x), shared.Density(x); a != b {
						t.Fatalf("%s mode=%d: Density(%v) %v != %v", c.name, mode, x, a, b)
					}
				}
			}
		}
	}
}

// TestFitContextSharedAcrossFits reuses one context for many bandwidths —
// the DPI/LSCV/oracle access pattern — and checks each fit stands alone.
func TestFitContextSharedAcrossFits(t *testing.T) {
	samples := uniformSamples(t, 900, 0, 512, 9)
	ctx, err := NewFitContext(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{1, 4, 16, 64, 200} {
		cfg := Config{Bandwidth: h, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 512}
		shared, err := ctx.NewEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := New(samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]float64{{0, 512}, {10, 20}, {500, 512}, {128, 384}} {
			if a, b := direct.Selectivity(q[0], q[1]), shared.Selectivity(q[0], q[1]); a != b {
				t.Fatalf("h=%v: Selectivity(%v,%v) %v != %v", h, q[0], q[1], a, b)
			}
		}
	}
}

func TestNewFitContextSortedValidation(t *testing.T) {
	if _, err := NewFitContextSorted(nil); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := NewFitContextSorted([]float64{3, 1, 2}); err == nil {
		t.Fatal("unsorted input should error")
	}
	if _, err := NewFitContext(nil); err == nil {
		t.Fatal("empty input should error")
	}
	ctx, err := NewFitContextSorted([]float64{1, 2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.SampleSize() != 4 {
		t.Fatalf("SampleSize = %d, want 4", ctx.SampleSize())
	}
	if got := ctx.Sorted(); !sort.Float64sAreSorted(got) || len(got) != 4 {
		t.Fatalf("Sorted() = %v", got)
	}
}

// TestFitContextSegmentAliasing covers the hybrid access pattern: contexts
// over contiguous sub-slices of one sorted array, with no copying.
func TestFitContextSegmentAliasing(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	seg := sorted[50:150]
	ctx, err := NewFitContextSorted(seg)
	if err != nil {
		t.Fatal(err)
	}
	if &ctx.Sorted()[0] != &seg[0] {
		t.Fatal("context must alias, not copy, the sorted segment")
	}
	e, err := ctx.NewEstimator(Config{Bandwidth: 5, Boundary: BoundaryKernels, DomainLo: 49.5, DomainHi: 149.5})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Selectivity(49.5, 149.5); math.Abs(s-1) > 0.05 {
		t.Fatalf("segment estimator mass %v, want ≈1", s)
	}
}

// TestFitPathTelemetryMoves is the structural telemetry test: the fit
// counters must advance when the fit path runs, so dashboards can tell
// reuse is actually happening.
func TestFitPathTelemetryMoves(t *testing.T) {
	sortsBefore := fitSortsAvoided.Value()
	gridBefore := fitGridEvals.Value()

	samples := uniformSamples(t, 300, 0, 100, 77)
	ctx, err := NewFitContext(samples)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ctx.NewEstimator(Config{Bandwidth: 4, Boundary: BoundaryReflect, DomainLo: 0, DomainHi: 100})
	if err != nil {
		t.Fatal(err)
	}
	e.DensityGrid(0, 100, 64)

	if got := fitSortsAvoided.Value(); got <= sortsBefore {
		t.Fatalf("fit_sorts_avoided did not move: %d -> %d", sortsBefore, got)
	}
	if got := fitGridEvals.Value(); got < gridBefore+64 {
		t.Fatalf("fit_grid_evals moved %d -> %d, want at least +64", gridBefore, got)
	}
}
