package hybrid

// BenchmarkFitHybridBuild vs BenchmarkFitHybridBuildSeed — the hybrid leg
// of the fit-path evidence in BENCH_fit.json. The seed build below is the
// pre-engine implementation kept verbatim: a pointwise change-point scan
// over a kde.New pilot (second sort), scale estimates that copy-and-sort
// per call, and a sequential bin loop whose per-bin kde.New each sorted
// its segment again.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xmath"
	"selest/internal/xrand"
)

func hybridBenchSamples(n int) []float64 {
	r := xrand.New(uint64(n) + 7)
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

var hybridFitSizes = []int{2_000, 100_000, 1_000_000}

func BenchmarkFitHybridBuild(b *testing.B) {
	for _, n := range hybridFitSizes {
		samples := hybridBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(samples, 0, 1e6, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFitHybridBuildSeed(b *testing.B) {
	for _, n := range hybridFitSizes {
		samples := hybridBenchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := seedHybridNew(samples, 0, 1e6, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// seedHybridNew is the pre-engine New, reference for the bench pair and
// the equivalence test below.
func seedHybridNew(samples []float64, lo, hi float64, cfg Config) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("hybrid: empty sample set")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	points, err := seedChangePoints(sorted, lo, hi, cfg)
	if err != nil {
		return nil, err
	}
	bounds := append(append([]float64{lo}, points...), hi)
	counts := binCounts(sorted, bounds)
	bounds, counts = mergeSmallBins(bounds, counts, int(cfg.MinBinFraction*float64(len(sorted))))
	e := &Estimator{lo: lo, hi: hi, points: bounds[1 : len(bounds)-1]}
	n := float64(len(sorted))
	start := 0
	for i := 0; i < len(counts); i++ {
		count := counts[i]
		blo, bhi := bounds[i], bounds[i+1]
		segment := sorted[start : start+count]
		start += count
		b := bin{lo: blo, hi: bhi, weight: float64(count) / n}
		if count > 0 {
			b.est = seedLocalEstimator(segment, blo, bhi)
			if b.est != nil {
				b.mass = b.est.SelectivityUnclamped(blo, bhi)
				if b.mass <= 0 {
					b.est = nil
				}
			}
		}
		e.bins = append(e.bins, b)
	}
	return e, nil
}

func seedChangePoints(sorted []float64, lo, hi float64, cfg Config) ([]float64, error) {
	h, err := bandwidth.NormalScaleBandwidthSorted(sorted, kernel.Epanechnikov{})
	if err != nil {
		return nil, nil
	}
	pilot, err := kde.New(sorted, kde.Config{
		Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi,
	})
	if err != nil {
		return nil, err
	}
	xs := xmath.Linspace(lo, hi, cfg.GridSize)
	dx := xs[1] - xs[0]
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = pilot.Density(x)
	}
	d2 := xmath.SecondDerivativeTable(ys, dx)
	type cand struct{ x, mag float64 }
	cands := make([]cand, 0, len(xs))
	for i := 1; i < len(d2)-1; i++ {
		m := math.Abs(d2[i])
		if m >= math.Abs(d2[i-1]) && m >= math.Abs(d2[i+1]) && m > 0 {
			cands = append(cands, cand{x: xs[i], mag: m})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mag > cands[j].mag })
	minSep := (hi - lo) / float64(4*(cfg.MaxChangePoints+1))
	var accepted []float64
	for _, c := range cands {
		if len(accepted) >= cfg.MaxChangePoints {
			break
		}
		if c.x-lo < minSep || hi-c.x < minSep {
			continue
		}
		ok := true
		for _, a := range accepted {
			if math.Abs(a-c.x) < minSep {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, c.x)
		}
	}
	sort.Float64s(accepted)
	return accepted, nil
}

func seedLocalEstimator(segment []float64, lo, hi float64) *kde.Estimator {
	if len(segment) < 4 {
		return nil
	}
	h, err := bandwidth.NormalScaleBandwidthSorted(segment, kernel.Epanechnikov{})
	if err != nil || h <= 0 {
		return nil
	}
	if w := hi - lo; h > w {
		h = w
	}
	est, err := kde.New(segment, kde.Config{
		Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi,
	})
	if err != nil {
		return nil
	}
	return est
}

// TestHybridMatchesSeedBuild holds the engine build to the seed build.
// Exact layout equality is deliberately NOT required: on regions where
// the pilot density is locally quadratic the second-difference table is
// a constant plateau (|d2| ~ 3e-16 on this mixture) and the pointwise
// scan's evaluation noise can mint a spurious local maximum there that
// the smoother closed-form sweep does not reproduce. What IS pinned:
// every change point the engine keeps matches a seed change point within
// the 1e-12 fit-path budget (the engine never invents structure the seed
// didn't see), and the two builds agree as estimators on random range
// queries. Worker-count bit-identity is pinned separately in
// TestWorkersBitIdentical.
func TestHybridMatchesSeedBuild(t *testing.T) {
	samples := hybridBenchSamples(5000)
	got, err := New(samples, 0, 1e6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedHybridNew(samples, 0, 1e6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Bins() < 2 {
		t.Fatalf("engine found no structure: %d bins", got.Bins())
	}
	for _, g := range got.ChangePoints() {
		matched := false
		for _, w := range want.ChangePoints() {
			if xmath.AlmostEqual(g, w, 1e-12) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("engine change point %v has no seed counterpart in %v", g, want.ChangePoints())
		}
	}
	r := xrand.New(13)
	for i := 0; i < 200; i++ {
		a := r.Float64() * 1e6
		b := a + r.Float64()*(1e6-a)
		ga, wa := got.Selectivity(a, b), want.Selectivity(a, b)
		if math.Abs(ga-wa) > 0.02 {
			t.Fatalf("Selectivity(%v,%v): engine %v, seed %v", a, b, ga, wa)
		}
	}
}
