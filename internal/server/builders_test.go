package server

import (
	"math"
	"testing"

	"selest/internal/core"
	"selest/internal/kde"
	"selest/internal/online"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// mergeSorts counts refits whose sorted view merged the previous one.
var mergeSorts = telemetry.Label("selest_online_refit_sorts_total", "path", "merge")

// viewSum is an order-sensitive checksum of a sorted view's bits.
func viewSum(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

// TestBuildersNeverWriteTheView: the primary and equi-depth rungs fit the
// reservoir's sorted view in place, and the view stays the reservoir's
// merge base and the snapshot's drift baseline. A checksum of the view a
// refit was handed, taken before and after the refit and again after the
// next refit has merged its replacements into a new view, pins that no
// fit writes to it and that the merge builds the next view elsewhere.
func TestBuildersNeverWriteTheView(t *testing.T) {
	for _, cfg := range []AttrConfig{
		{},
		{Rule: core.DPI, Boundary: kde.BoundaryKernels},
		{Method: core.BetaKernel},
		{Method: core.EquiDepth},
	} {
		cfg.DomainLo, cfg.DomainHi = 0, 1e6
		primary, fallbacks := cfg.builders()
		for rung, build := range []online.Builder{primary, fallbacks[0]} {
			var views [][]float64
			var sums []uint64
			watched := func(view []float64) (online.Fitted, error) {
				before := viewSum(view)
				fit, err := build(view)
				if after := viewSum(view); after != before {
					t.Fatalf("%s rung %d: the fit wrote to the view it was handed", cfg.methodOrDefault(), rung)
				}
				views, sums = append(views, view), append(sums, before)
				return fit, err
			}
			est, err := online.New(watched, online.Config{ReservoirSize: 1024, RefitEvery: -1, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(4)
			feed := func(n int) {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = math.Floor(r.Float64() * 1e6)
				}
				if err := est.InsertBatch(xs); err != nil {
					t.Fatal(err)
				}
				if err := est.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			merges := telemetry.Default.Counter(mergeSorts)
			feed(1024)
			before := merges.Value()
			feed(96) // replaces at most an eighth: the merge path
			feed(96)
			if merges.Value() < before+2 {
				t.Fatalf("%s rung %d: the refits did not merge their views", cfg.methodOrDefault(), rung)
			}
			for i, v := range views {
				if viewSum(v) != sums[i] {
					t.Fatalf("%s rung %d: view %d changed after the next merge", cfg.methodOrDefault(), rung, i)
				}
			}
		}
	}
}
