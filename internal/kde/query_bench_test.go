package kde_test

// Query-engine benchmarks: the Θ(n) reference evaluator, the O(log n + k)
// edge scan and the O(log n) prefix-moment closed form,
// at n ∈ {1e4, 1e5, 1e6} with the DPI bandwidth the production
// configuration uses. `make bench` converts the output to BENCH_query.json.
//
// This file lives in package kde_test because the DPI rule comes from
// internal/bandwidth, which itself imports internal/kde.

import (
	"math"
	"sync"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xrand"
)

// rangeQuery is one benchmark query [A, B].
type rangeQuery struct{ A, B float64 }

type queryBenchSetup struct {
	est     *kde.Estimator
	queries []rangeQuery
}

var (
	queryBenchMu    sync.Mutex
	queryBenchCache = map[int]*queryBenchSetup{}
)

// querySetup builds (once per size) a reflect-mode estimator over clustered
// integer data on [0, 2^22) with the DPI(2) bandwidth, plus a fixed 1%
// query workload.
func querySetup(b *testing.B, n int) *queryBenchSetup {
	b.Helper()
	queryBenchMu.Lock()
	defer queryBenchMu.Unlock()
	if s, ok := queryBenchCache[n]; ok {
		return s
	}
	const span = float64(1 << 22)
	r := xrand.New(uint64(n) | 5)
	xs := make([]float64, n)
	for i := range xs {
		c := span * (0.2 + 0.6*float64(i%5)/5)
		xs[i] = math.Floor(math.Min(math.Max(c+(r.Float64()-0.5)*span*0.1, 0), span-1))
	}
	ctx, err := kde.NewFitContext(xs)
	if err != nil {
		b.Fatal(err)
	}
	h, err := bandwidth.DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, span)
	if err != nil {
		b.Fatal(err)
	}
	est, err := ctx.NewEstimator(kde.Config{
		Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: 0, DomainHi: span,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]rangeQuery, 256)
	for i := range queries {
		a := r.Float64() * span * 0.99
		queries[i] = rangeQuery{A: a, B: a + 0.01*span}
	}
	s := &queryBenchSetup{est: est, queries: queries}
	queryBenchCache[n] = s
	return s
}

var benchSizes = []struct {
	name string
	n    int
}{{"n=10000", 1e4}, {"n=100000", 1e5}, {"n=1000000", 1e6}}

func BenchmarkQueryLinear(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := querySetup(b, sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := s.queries[i%len(s.queries)]
				sinkSelectivity = s.est.SelectivityLinear(q.A, q.B)
			}
		})
	}
}

func BenchmarkQueryEdgeScan(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := querySetup(b, sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := s.queries[i%len(s.queries)]
				sinkSelectivity = s.est.SelectivityEdgeScan(q.A, q.B)
			}
		})
	}
}

func BenchmarkQueryMoment(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := querySetup(b, sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := s.queries[i%len(s.queries)]
				sinkSelectivity = s.est.Selectivity(q.A, q.B)
			}
		})
	}
}

var sinkSelectivity float64

// spreadPick is one query of the spread workload and the estimator it
// goes to.
type spreadPick struct {
	est int
	q   rangeQuery
}

type spreadSetup struct {
	ests  []*kde.Estimator
	picks []spreadPick // a power-of-two count
}

var spreadCache = map[string]*spreadSetup{}

// spreadSetupFor builds (once per case) pool estimators over n clustered
// integer samples on [0, 2^22) each, with the normal-scale bandwidth, and
// 4096 queries of 1% of the domain sent to estimators drawn at random.
func spreadSetupFor(b *testing.B, name string, pool, n int, mode kde.BoundaryMode) *spreadSetup {
	b.Helper()
	queryBenchMu.Lock()
	defer queryBenchMu.Unlock()
	if s, ok := spreadCache[name]; ok {
		return s
	}
	const span = float64(1 << 22)
	r := xrand.New(uint64(pool*n) | 3)
	s := &spreadSetup{ests: make([]*kde.Estimator, pool), picks: make([]spreadPick, 4096)}
	for i := range s.ests {
		xs := make([]float64, n)
		for j := range xs {
			c := span * (0.2 + 0.6*float64(j%5)/5)
			xs[j] = math.Floor(math.Min(math.Max(c+(r.Float64()-0.5)*span*0.1, 0), span-1))
		}
		ctx, err := kde.NewFitContext(xs)
		if err != nil {
			b.Fatal(err)
		}
		h, err := bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{})
		if err != nil {
			b.Fatal(err)
		}
		if s.ests[i], err = ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: mode, DomainLo: 0, DomainHi: span}); err != nil {
			b.Fatal(err)
		}
	}
	for i := range s.picks {
		a := r.Float64() * span * 0.99
		s.picks[i] = spreadPick{est: int(r.Uint64() % uint64(pool)), q: rangeQuery{A: a, B: a + 0.01*span}}
	}
	spreadCache[name] = s
	return s
}

// BenchmarkQuerySpread sends each query to an estimator drawn at random
// from a pool, as a service answering many attributes does: 256 or 1024
// estimators over n = 2000 samples (serve-read's attribute count and
// reservoir), and 8 boundary-kernel estimators over n = 2^18
// (ingest-refit's reservoir). Spread over a pool, a query's binary
// searches and index reads miss the cache, which the one-estimator
// benchmarks above hide.
func BenchmarkQuerySpread(b *testing.B) {
	for _, c := range []struct {
		name    string
		pool, n int
		mode    kde.BoundaryMode
	}{
		{"pool=256/n=2000", 256, 2000, kde.BoundaryNone},
		{"pool=1024/n=2000", 1024, 2000, kde.BoundaryNone},
		{"pool=8/n=262144/boundary-kernels", 8, 1 << 18, kde.BoundaryKernels},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := spreadSetupFor(b, c.name, c.pool, c.n, c.mode)
			mask := len(s.picks) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &s.picks[i&mask]
				sinkSelectivity = s.ests[p.est].Selectivity(p.q.A, p.q.B)
			}
		})
	}
}
