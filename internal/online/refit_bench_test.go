package online

// BenchmarkRefit* — the committed evidence for the closed-form refit
// path (BENCH_refit.json via `make bench-refit`). Two views:
//
//   - Refit measures a refit that sorts in full, per rule: a fresh copy
//     of an unsorted sample, its sort, and one builder invocation on the
//     sorted result — what the serving engine pays when the reservoir
//     re-sorts its whole sample. The sort dominates every rule here; the
//     closed-form win is the gap to the dpi row. The equi-depth row is
//     the service's first fallback rung.
//   - RefitSteady measures the refit the engine runs in steady state:
//     Flush on a 2^18-value reservoir that has seen about 10^6 values,
//     after one batch that replaced about 4% of its sample, so the
//     reservoir merges the replacements into its previous sorted sample
//     instead of sorting all of it.
//   - RefitSelector isolates the bandwidth stage on a prebuilt context:
//     the part the closed-form engine collapses from a pilot cascade to
//     O(1) arithmetic (≥10× at n = 10⁶; in practice ~10⁴×).
//   - RefitSortBaseline is the copy+sort+index floor no builder can
//     beat, for the "total refit ≤ 1.5× the sort alone" claim.
//   - RefitQuery pins the query path of the freshly refitted beta
//     estimator at zero allocations.

import (
	"fmt"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/fsort"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xrand"
)

func refitBenchSamples(n int) []float64 {
	xs := make([]float64, n)
	fillRefitBench(xrand.New(uint64(n)+3), xs)
	return xs
}

// fillRefitBench fills xs from the refit benches' three-part mixture.
func fillRefitBench(r *xrand.RNG, xs []float64) {
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = 1e5 + r.Float64()*5e4
		case 1:
			xs[i] = 4e5 + r.Float64()*1e4
		default:
			xs[i] = 5e5 + r.Float64()*5e5
		}
	}
}

var refitSizes = []int{10_000, 100_000, 1_000_000}

// refitBuilders are the rules a refit can run under, each as the Builder
// the serving engine would invoke. Every row goes through
// core.BuildSorted (rule + estimator over the sorted view, as selestd's
// attributes fit); the closed-form row is hullBeta (O(1) rule +
// estimator over the sample hull). The equi-depth row runs the
// normal-scale bin-width rule.
func refitBuilders() []struct {
	name string
	mk   Builder
} {
	coreBuilder := func(opts core.Options) Builder {
		return func(samples []float64) (Fitted, error) {
			return core.BuildSorted(samples, opts)
		}
	}
	return []struct {
		name string
		mk   Builder
	}{
		{"beta-closed-form", hullBeta},
		{"exact-mise", coreBuilder(core.Options{Method: core.BetaKernel, Rule: core.ExactMISE, DomainLo: 0, DomainHi: 1e6})},
		{"normal-scale", coreBuilder(core.Options{Method: core.Kernel, Rule: core.NormalScale, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1e6})},
		{"dpi", coreBuilder(core.Options{Method: core.Kernel, Rule: core.DPI, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1e6})},
		{"equi-depth", coreBuilder(core.Options{Method: core.EquiDepth, DomainLo: 0, DomainHi: 1e6})},
	}
}

func BenchmarkRefit(b *testing.B) {
	for _, builder := range refitBuilders() {
		for _, n := range refitSizes {
			samples := refitBenchSamples(n)
			snap := make([]float64, n)
			b.Run(fmt.Sprintf("rule=%s/n=%d", builder.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// A full-path refit copies the reservoir and sorts the
					// copy before the builder runs. Each fit is dropped at
					// once, so the copy's buffer can be reused.
					copy(snap, samples)
					fsort.Float64s(snap)
					if _, err := builder.mk(snap); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRefitSteady times Flush in steady state. Each iteration
// first feeds, untimed, one batch of a twenty-fifth of the values seen
// so far, which replaces ln(1 + 1/25) ≈ 4% of the reservoir; the
// estimator is primed afresh with 10^6 values whenever it has seen
// 1.5·10^6, so the share stays near 4% at any b.N.
func BenchmarkRefitSteady(b *testing.B) {
	const k, prime, reprime = 1 << 18, 1_000_000, 1_500_000
	for _, builder := range refitBuilders() {
		if builder.name != "normal-scale" && builder.name != "equi-depth" {
			continue
		}
		b.Run(fmt.Sprintf("rule=%s/n=%d", builder.name, k), func(b *testing.B) {
			r := xrand.New(5)
			batch := make([]float64, reprime/25)
			feed := func(e *Estimator, n int) {
				for ; n > 0; n -= len(batch) {
					xs := batch[:min(n, len(batch))]
					fillRefitBench(r, xs)
					if err := e.InsertBatch(xs); err != nil {
						b.Fatal(err)
					}
				}
			}
			var e *Estimator
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if e == nil || e.Inserts() >= reprime {
					var err error
					if e, err = New(builder.mk, Config{ReservoirSize: k, RefitEvery: -1, Seed: 3}); err != nil {
						b.Fatal(err)
					}
					feed(e, prime)
					if err := e.Flush(); err != nil {
						b.Fatal(err)
					}
				}
				feed(e, e.Inserts()/25)
				b.StartTimer()
				if err := e.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefitSelector isolates the bandwidth stage on a context the
// refit has already built (the sort is sunk cost either way).
func BenchmarkRefitSelector(b *testing.B) {
	selectors := []struct {
		name string
		fn   func(ctx *kde.FitContext) (float64, error)
	}{
		{"beta-closed-form", bandwidth.BetaClosedFormContext},
		{"exact-mise", bandwidth.ExactMISECDFContext},
		{"dpi", func(ctx *kde.FitContext) (float64, error) {
			return bandwidth.DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 1e6)
		}},
	}
	for _, sel := range selectors {
		for _, n := range refitSizes {
			ctx, err := kde.NewFitContext(refitBenchSamples(n))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("rule=%s/n=%d", sel.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sel.fn(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRefitSortBaseline is the refit floor: the snapshot copy, the
// radix sort, and the prefix-moment index — everything below the
// bandwidth rule.
func BenchmarkRefitSortBaseline(b *testing.B) {
	for _, n := range refitSizes {
		samples := refitBenchSamples(n)
		snap := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(snap, samples)
				fsort.Float64s(snap)
				if _, err := kde.NewFitContextSorted(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefitQuery pins the query path of the closed-form fit at
// zero allocations (the b.ReportAllocs line in BENCH_refit is the pin).
func BenchmarkRefitQuery(b *testing.B) {
	samples := refitBenchSamples(100_000)
	fsort.Float64s(samples)
	fit, err := hullBeta(samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fit.Selectivity(2e5, 6e5)
	}
	_ = sink
}
