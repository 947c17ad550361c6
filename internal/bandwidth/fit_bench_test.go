package bandwidth

// BenchmarkFit* — the committed before/after evidence for the fit-path
// engine (BENCH_fit.json via `make bench-fit`). Each pair measures the
// engine path against the seed implementation kept in fitpath_test.go:
//
//	FitDPI vs FitDPISeed          shared context + DensityGrid sweep vs
//	                              sort-per-pilot + pointwise grid scan
//	FitLSCV vs FitLSCVSeed        devirtualised pair walk + parallel grid
//	                              vs interface-dispatched LogGridMin
//	FitOracle vs FitOracleSeed    candidate estimators from one context vs
//	                              a fresh kde.New (sort included) each
//
// Each iteration builds the rule's input from the raw sample — the fit
// context, or LSCV's sorted copy — so the numbers include the one sort
// the engine still pays.

import (
	"fmt"
	"testing"

	"selest/internal/fsort"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xrand"
)

// fitBenchSamples draws the clustered mixture used across the fit
// benches: three components of very different scale over [0, 1e6], so
// the DPI iterations actually move and the hybrid has change points to
// find.
func fitBenchSamples(n int) []float64 {
	r := xrand.New(uint64(n) + 1)
	xs := make([]float64, n)
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
	return xs
}

var fitSizes = []int{2_000, 100_000, 1_000_000}

func BenchmarkFitDPI(b *testing.B) {
	for _, n := range fitSizes {
		samples := fitBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, err := kde.NewFitContext(samples)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 1e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitDPISeed(b *testing.B) {
	for _, n := range fitSizes {
		samples := fitBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dpiBandwidthRef(samples, kernel.Epanechnikov{}, 2, 0, 1e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// LSCV is quadratic in the within-reach pairs, so it is benchmarked at
// the sizes the experiments actually run it at.
var lscvSizes = []int{2_000, 10_000}

func BenchmarkFitLSCV(b *testing.B) {
	for _, n := range lscvSizes {
		samples := fitBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sorted := append([]float64(nil), samples...)
				fsort.Float64s(sorted)
				if _, err := LSCVBandwidthSorted(sorted, kernel.Epanechnikov{}, 100, 5e4, 25, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitLSCVSeed(b *testing.B) {
	for _, n := range lscvSizes {
		sorted := sortedCopy(fitBenchSamples(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if h := lscvBandwidthRef(sorted, kernel.Epanechnikov{}, 100, 5e4, 25); h <= 0 {
					b.Fatal("no bandwidth")
				}
			}
		})
	}
}

// oracleLoss builds the candidate estimator the way Fig11's MRE loss
// does and probes a fixed query set; newEst is either a context fit or a
// from-scratch kde.New.
func oracleLoss(newEst func(h float64) (*kde.Estimator, error)) func(h float64) float64 {
	return func(h float64) float64 {
		est, err := newEst(h)
		if err != nil {
			return 1e18
		}
		sum := 0.0
		for _, q := range [][2]float64{{1e5, 2e5}, {3.9e5, 4.2e5}, {5e5, 9e5}} {
			sum += est.Selectivity(q[0], q[1])
		}
		return sum
	}
}

var oracleSizes = []int{2_000, 100_000}

func BenchmarkFitOracle(b *testing.B) {
	for _, n := range oracleSizes {
		samples := fitBenchSamples(n)
		ctx, err := kde.NewFitContext(samples)
		if err != nil {
			b.Fatal(err)
		}
		loss := oracleLoss(func(h float64) (*kde.Estimator, error) {
			return ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1e6})
		})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OracleWorkers(loss, 1e3, 1e5, 49, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitOracleSeed(b *testing.B) {
	for _, n := range oracleSizes {
		samples := fitBenchSamples(n)
		loss := oracleLoss(func(h float64) (*kde.Estimator, error) {
			return kde.New(samples, kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1e6})
		})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Workers=1 and a sequential-equivalent scan: the seed had no
				// pool, so pin it out of the comparison.
				if _, err := OracleWorkers(loss, 1e3, 1e5, 49, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitBetaClosedForm / BenchmarkFitExactMISE measure the
// closed-form selectors from the raw sample, symmetric with FitDPI — the
// fit context's one sort is included.
func BenchmarkFitBetaClosedForm(b *testing.B) {
	for _, n := range fitSizes {
		samples := fitBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, err := kde.NewFitContext(samples)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := BetaClosedFormContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitExactMISE(b *testing.B) {
	for _, n := range fitSizes {
		samples := fitBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, err := kde.NewFitContext(samples)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ExactMISECDFContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitSelectorOnly isolates the selector stage on a prebuilt
// fit context — the marginal cost a refit pays after the sort it must
// do anyway. This is where the closed forms separate from the searches:
// DPI still sweeps pilot grids, the closed rules are O(1) arithmetic.
func BenchmarkFitSelectorOnly(b *testing.B) {
	selectors := []struct {
		name string
		fn   func(ctx *kde.FitContext) (float64, error)
	}{
		{"dpi", func(ctx *kde.FitContext) (float64, error) {
			return DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 1e6)
		}},
		{"beta-closed-form", BetaClosedFormContext},
		{"exact-mise", ExactMISECDFContext},
	}
	for _, n := range fitSizes {
		ctx, err := kde.NewFitContext(fitBenchSamples(n))
		if err != nil {
			b.Fatal(err)
		}
		for _, sel := range selectors {
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
