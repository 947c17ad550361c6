package online

import (
	"sort"
	"sync"
	"testing"
	"time"

	"selest/internal/core"
	"selest/internal/kde"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// The serving benchmark suite: the committed evidence (BENCH_serve.json,
// `make bench-serve`) that the atomic-snapshot engine beats the RWMutex
// design it replaced. Three axes:
//
//   - BenchmarkServeQuery*: steady-state parallel query throughput, the
//     RLock cache-line bounce vs one atomic load. Run at -cpu 1,8.
//   - BenchmarkServeQueryDuringRefit*: p99 query latency while an
//     n=1e6 DPI refit runs underneath — the stall number. The mutex
//     design holds the write lock for the whole build; the snapshot
//     design publishes with one pointer swap.
//   - BenchmarkServeInsert* / BenchmarkServeMixed*: ingest and mixed
//     workloads, the engine's reservoir lock vs the RWMutex held across
//     inserts and refits.
//
// The locked baseline is lockedEstimator (locked_ref_test.go), the
// pre-engine implementation preserved verbatim.

// benchFit is a trivial fit so the query benchmarks measure the serving
// path itself, not the estimator math behind it.
type benchFit struct{ frac float64 }

func (f *benchFit) Selectivity(a, b float64) float64 { return f.frac }
func (f *benchFit) Name() string                     { return "bench" }

func benchBuilder(samples []float64) (Fitted, error) {
	return &benchFit{frac: 1 / float64(1+len(samples))}, nil
}

// dpiBuilder is the heavy refit: the paper-recommended kernel estimator
// with the direct plug-in bandwidth, ~56 ms at n = 1e6 on the fit-path
// engine (BENCH_fit.json).
func dpiBuilder(samples []float64) (Fitted, error) {
	return core.Build(samples, core.Options{
		Method: core.Kernel, Rule: core.DPI, Boundary: kde.BoundaryKernels,
		DomainLo: 0, DomainHi: 1000,
	})
}

func fillEngine(b *testing.B, build Builder, cfg Config, n int) *Estimator {
	b.Helper()
	e, err := New(build, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(99)
	for i := 0; i < n; i++ {
		e.Insert(r.Float64() * 1000)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	return e
}

func fillLocked(b *testing.B, build Builder, cfg Config, n int) *lockedEstimator {
	b.Helper()
	e := newLocked(build, cfg)
	r := xrand.New(99)
	for i := 0; i < n; i++ {
		e.Insert(r.Float64() * 1000)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	return e
}

// serveQueryCfg disables every refit trigger so the steady-state query
// benchmarks never build mid-run.
var serveQueryCfg = Config{ReservoirSize: 2000, RefitEvery: -1, Seed: 1}

func BenchmarkServeQuerySnapshot(b *testing.B) {
	e := fillEngine(b, benchBuilder, serveQueryCfg, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if s := e.Selectivity(100, 300); s < 0 {
				panic("bad selectivity")
			}
		}
	})
}

func BenchmarkServeQueryMutex(b *testing.B) {
	e := fillLocked(b, benchBuilder, serveQueryCfg, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if s := e.Selectivity(100, 300); s < 0 {
				panic("bad selectivity")
			}
		}
	})
}

// refitLoop keeps rebuilding the estimator in the background until stop
// closes, pausing briefly between builds so readers can interleave — the
// "statistics refresh storm" a serving system sees.
func refitLoop(flush func() error, stop chan struct{}, done *sync.WaitGroup) {
	done.Add(1)
	go func() {
		defer done.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := flush(); err != nil {
					panic(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
}

// latencyRecorder collects per-query wall times across the parallel
// reader goroutines and reports the p50/p99/max to the benchmark.
type latencyRecorder struct {
	mu  sync.Mutex
	all []time.Duration
}

func (l *latencyRecorder) add(batch []time.Duration) {
	l.mu.Lock()
	l.all = append(l.all, batch...)
	l.mu.Unlock()
}

func (l *latencyRecorder) report(b *testing.B) {
	if len(l.all) == 0 {
		return
	}
	sort.Slice(l.all, func(i, j int) bool { return l.all[i] < l.all[j] })
	pct := func(q float64) float64 {
		i := int(q * float64(len(l.all)-1))
		return float64(l.all[i])
	}
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
	b.ReportMetric(float64(l.all[len(l.all)-1]), "max-ns")
}

// duringRefitCfg holds the n=1e6 reservoir the DPI refit rebuilds from.
const duringRefitReservoir = 1_000_000

var duringRefitCfg = Config{ReservoirSize: duringRefitReservoir, RefitEvery: -1, Seed: 1}

func benchQueryDuringRefit(b *testing.B, query func(a, bq float64) float64, flush func() error) {
	var rec latencyRecorder
	stop := make(chan struct{})
	var done sync.WaitGroup
	refitLoop(flush, stop, &done)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lat := make([]time.Duration, 0, 1<<16)
		for pb.Next() {
			t0 := time.Now()
			if s := query(100, 300); s < 0 {
				panic("bad selectivity")
			}
			lat = append(lat, time.Since(t0))
		}
		rec.add(lat)
	})
	b.StopTimer()
	close(stop)
	done.Wait()
	rec.report(b)
}

func BenchmarkServeQueryDuringRefitSnapshot(b *testing.B) {
	e := fillEngine(b, dpiBuilder, duringRefitCfg, duringRefitReservoir)
	benchQueryDuringRefit(b, e.Selectivity, e.Flush)
}

func BenchmarkServeQueryDuringRefitMutex(b *testing.B) {
	e := fillLocked(b, dpiBuilder, duringRefitCfg, duringRefitReservoir)
	benchQueryDuringRefit(b, e.Selectivity, e.Flush)
}

// The insert benchmarks disable refits so they measure pure reservoir
// ingest: the engine's reservoir lock vs the locked estimator's RWMutex.
func BenchmarkServeInsertSnapshot(b *testing.B) {
	e, err := New(benchBuilder, Config{ReservoirSize: 8192, RefitEvery: -1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	telemetry.Disable()
	defer telemetry.Enable()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(7)
		for pb.Next() {
			e.Insert(r.Float64() * 1000)
		}
	})
}

func BenchmarkServeInsertMutex(b *testing.B) {
	e := newLocked(benchBuilder, Config{ReservoirSize: 8192, RefitEvery: -1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(7)
		for pb.Next() {
			e.Insert(r.Float64() * 1000)
		}
	})
}

// The mixed workload: 1 insert per 8 queries per goroutine with cadence
// refits live, the closest shape to the online-aggregation serving loop.
func BenchmarkServeMixedSnapshot(b *testing.B) {
	cfg := Config{ReservoirSize: 2000, RefitEvery: 20000, Seed: 1}
	e := fillEngine(b, benchBuilder, cfg, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(7)
		i := 0
		for pb.Next() {
			if i%8 == 0 {
				e.Insert(r.Float64() * 1000)
			} else {
				e.Selectivity(100, 300)
			}
			i++
		}
	})
}

func BenchmarkServeMixedMutex(b *testing.B) {
	cfg := Config{ReservoirSize: 2000, RefitEvery: 20000, Seed: 1}
	e := fillLocked(b, benchBuilder, cfg, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(7)
		i := 0
		for pb.Next() {
			if i%8 == 0 {
				e.Insert(r.Float64() * 1000)
			} else {
				e.Selectivity(100, 300)
			}
			i++
		}
	})
}
