// Benchmarks regenerating every table and figure of the paper's evaluation
// (one bench per experiment, reporting the headline error metrics via
// b.ReportMetric) plus the ablation benches DESIGN.md §5 calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
package selest_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/errmetrics"
	"selest/internal/experiments"
	"selest/internal/fsort"
	"selest/internal/histogram"
	"selest/internal/hybrid"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/query"
	"selest/internal/stats"
	"selest/internal/xrand"
)

// benchEnv is shared across benches so data files and workloads generate
// once; 200 queries per workload keeps full -bench runs in tens of
// seconds while preserving every figure's shape.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnvVal = experiments.NewEnv(experiments.Config{QueryCount: 200})
	})
	return benchEnvVal
}

// runDriver runs one experiment driver per iteration and returns the last
// report for metric extraction.
func runDriver(b *testing.B, id string) *experiments.Report {
	b.Helper()
	env := benchEnv()
	d, ok := experiments.DriverByID(id)
	if !ok {
		b.Fatalf("no driver %s", id)
	}
	// Warm the caches outside the timed region.
	if _, err := d.Run(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = d.Run(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// tableMetric reports table cells as bench metrics named row/col.
func tableMetric(b *testing.B, rep *experiments.Report, rowLabel, colName, metric string) {
	b.Helper()
	ci := -1
	for i, c := range rep.Table.Columns {
		if c == colName {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("no column %s", colName)
	}
	for _, r := range rep.Table.Rows {
		if r.Label == rowLabel {
			b.ReportMetric(r.Values[ci], metric)
			return
		}
	}
	b.Fatalf("no row %s", rowLabel)
}

// BenchmarkTable2DataFiles regenerates the Table 2 inventory.
func BenchmarkTable2DataFiles(b *testing.B) {
	rep := runDriver(b, "table2")
	b.ReportMetric(float64(len(rep.Table.Rows)), "files")
}

// BenchmarkFig3BoundaryError regenerates figure 3 and reports the maximum
// boundary error in records (paper: ~500).
func BenchmarkFig3BoundaryError(b *testing.B) {
	rep := runDriver(b, "fig3")
	s := rep.Series[0]
	b.ReportMetric(math.Max(math.Abs(s.Y[0]), math.Abs(s.Y[len(s.Y)-1])), "edge-records")
}

// BenchmarkFig4BinsCurve regenerates figure 4 and reports the optimal-bin
// MRE and the sampling MRE (paper: 7% vs 17.5%).
func BenchmarkFig4BinsCurve(b *testing.B) {
	rep := runDriver(b, "fig4")
	curve, flat := rep.Series[0], rep.Series[1]
	best := math.Inf(1)
	for _, y := range curve.Y {
		best = math.Min(best, y)
	}
	b.ReportMetric(best, "MRE-opt")
	b.ReportMetric(flat.Y[0], "MRE-sampling")
}

// BenchmarkFig5Cardinality regenerates figure 5 and reports the
// curve-average MRE per domain cardinality.
func BenchmarkFig5Cardinality(b *testing.B) {
	rep := runDriver(b, "fig5")
	for i, name := range []string{"MRE-n10", "MRE-n15", "MRE-n20"} {
		sum := 0.0
		for _, y := range rep.Series[i].Y {
			sum += y
		}
		b.ReportMetric(sum/float64(len(rep.Series[i].Y)), name)
	}
}

// BenchmarkFig6SampleSize regenerates figure 6 and reports each method's
// MRE at the paper's 2,000-sample point.
func BenchmarkFig6SampleSize(b *testing.B) {
	rep := runDriver(b, "fig6")
	names := []string{"MRE-sampling", "MRE-ewh", "MRE-kernel"}
	for i, s := range rep.Series {
		b.ReportMetric(s.Y[3], names[i])
	}
}

// BenchmarkFig7QuerySize regenerates figure 7 and reports arap2's MRE at
// 1% and 10% (paper: 17.5% vs 4.5%).
func BenchmarkFig7QuerySize(b *testing.B) {
	rep := runDriver(b, "fig7")
	tableMetric(b, rep, "arap2", "1%", "MRE-1pct")
	tableMetric(b, rep, "arap2", "10%", "MRE-10pct")
}

// BenchmarkFig8Histograms regenerates figure 8 and reports the n(20)
// results (paper: uniform loses by orders of magnitude).
func BenchmarkFig8Histograms(b *testing.B) {
	rep := runDriver(b, "fig8")
	tableMetric(b, rep, "n(20)", "EWH", "MRE-ewh")
	tableMetric(b, rep, "n(20)", "EDH", "MRE-edh")
	tableMetric(b, rep, "n(20)", "uniform", "MRE-uniform")
}

// BenchmarkFig9BinRules regenerates figure 9 and reports h-opt vs h-NS on
// n(20) (paper: within a few points).
func BenchmarkFig9BinRules(b *testing.B) {
	rep := runDriver(b, "fig9")
	tableMetric(b, rep, "n(20)", "MRE h-opt", "MRE-hopt")
	tableMetric(b, rep, "n(20)", "MRE h-NS", "MRE-hNS")
}

// BenchmarkFig10Boundary regenerates figure 10 and reports the worst
// boundary relative error per treatment.
func BenchmarkFig10Boundary(b *testing.B) {
	rep := runDriver(b, "fig10")
	names := []string{"edge-none", "edge-reflect", "edge-bkernels"}
	for i, s := range rep.Series {
		b.ReportMetric(math.Max(s.Y[0], s.Y[len(s.Y)-1]), names[i])
	}
}

// BenchmarkFig11Bandwidth regenerates figure 11 and reports the rules on
// the clustered arap1 stand-in (paper: DPI ≪ NS on real data).
func BenchmarkFig11Bandwidth(b *testing.B) {
	rep := runDriver(b, "fig11")
	tableMetric(b, rep, "arap1", "h-opt", "MRE-hopt")
	tableMetric(b, rep, "arap1", "h-NS", "MRE-hNS")
	tableMetric(b, rep, "arap1", "h-DPI2", "MRE-hDPI2")
}

// BenchmarkFig12Promising regenerates figure 12 and reports kernel vs
// hybrid on a synthetic and a clustered file (paper: kernel wins smooth,
// hybrid wins clustered).
func BenchmarkFig12Promising(b *testing.B) {
	rep := runDriver(b, "fig12")
	tableMetric(b, rep, "n(20)", "Kernel", "MRE-kernel-n20")
	tableMetric(b, rep, "arap1", "Kernel", "MRE-kernel-arap1")
	tableMetric(b, rep, "arap1", "Hybrid", "MRE-hybrid-arap1")
}

// --- micro-benchmarks of the estimator hot paths ---

func benchSamples(n int) []float64 {
	r := xrand.New(123)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 1e6
	}
	return out
}

// BenchmarkKernelSelectivityFastPath measures one σ̂(a,b) evaluation via
// the O(log n + k) sorted path.
func BenchmarkKernelSelectivityFastPath(b *testing.B) {
	est, err := kde.New(benchSamples(2000), kde.Config{Bandwidth: 1e4, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1e6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Selectivity(4e5, 4.1e5)
	}
}

// BenchmarkHistogramSelectivity measures one equi-width σ̂(a,b).
func BenchmarkHistogramSelectivity(b *testing.B) {
	samples := benchSamples(2000)
	fsort.Float64s(samples)
	h, err := histogram.BuildEquiWidth(samples, 50, 0, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Selectivity(4e5, 4.1e5)
	}
}

// BenchmarkHybridBuild measures hybrid-estimator construction (pilot KDE,
// change-point scan, per-bin fit) over a sample sorted once, untimed.
func BenchmarkHybridBuild(b *testing.B) {
	samples := benchSamples(2000)
	fsort.Float64s(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.New(samples, 0, 1e6, hybrid.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPIBandwidth measures the 2-step direct plug-in rule.
func BenchmarkDPIBandwidth(b *testing.B) {
	samples := benchSamples(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := kde.NewFitContext(samples)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bandwidth.DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §5) ---

// ablationWorkload builds a shared n(20) sample + 1%-query workload.
func ablationWorkload(b *testing.B) ([]float64, *query.Workload, float64, float64) {
	b.Helper()
	env := benchEnv()
	f, err := env.File("n(20)")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := env.DefaultSample("n(20)")
	if err != nil {
		b.Fatal(err)
	}
	w, err := env.Workload("n(20)", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.Domain()
	return samples, w, lo, hi
}

// BenchmarkAblationKernelChoice compares kernels at equal (normal scale)
// bandwidths — the paper's claim that the kernel choice barely matters.
func BenchmarkAblationKernelChoice(b *testing.B) {
	samples, w, lo, hi := ablationWorkload(b)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	for _, k := range kernel.All() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			h, err := bandwidth.NormalScaleBandwidthSorted(sorted, k)
			if err != nil {
				b.Fatal(err)
			}
			mode := kde.BoundaryReflect
			var mre float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := kde.New(samples, kde.Config{Kernel: k, Bandwidth: h, Boundary: mode, DomainLo: lo, DomainHi: hi})
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(est, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// BenchmarkAblationScaleEstimate compares the three scale estimates the
// paper discusses for the normal scale rule: stddev, IQR/1.348, and their
// minimum (the paper's choice).
func BenchmarkAblationScaleEstimate(b *testing.B) {
	samples, w, lo, hi := ablationWorkload(b)
	sd := stats.StdDev(samples)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	iqr := (stats.QuantileSorted(sorted, 0.75) - stats.QuantileSorted(sorted, 0.25)) / 1.348
	variants := []struct {
		name  string
		scale float64
	}{
		{"stddev", sd},
		{"iqr", iqr},
		{"min", math.Min(sd, iqr)},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			h := 2.345 * v.scale * math.Pow(float64(len(samples)), -0.2)
			var mre float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := kde.New(samples, kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(est, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// BenchmarkAblationEvalPath compares the sorted fast path against the
// paper's printed Θ(n) Algorithm 1.
func BenchmarkAblationEvalPath(b *testing.B) {
	est, err := kde.New(benchSamples(2000), kde.Config{Bandwidth: 1e4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = est.Selectivity(4e5, 4.1e5)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = est.SelectivityLinear(4e5, 4.1e5)
		}
	})
}

// BenchmarkAblationASHShifts varies the number of ASH shifts.
func BenchmarkAblationASHShifts(b *testing.B) {
	samples, w, lo, hi := ablationWorkload(b)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	width, err := bandwidth.NormalScaleBinWidthSorted(sorted)
	if err != nil {
		b.Fatal(err)
	}
	k := bandwidth.BinsForWidth(width, lo, hi, 8192)
	for _, m := range []int{1, 2, 5, 10, 20} {
		m := m
		b.Run(fmt.Sprintf("m=%02d", m), func(b *testing.B) {
			var mre float64
			for i := 0; i < b.N; i++ {
				a, err := histogram.BuildASH(sorted, k, m, lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(a, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// BenchmarkAblationDPISteps varies the DPI iteration count (paper: "two
// or three iteration steps are sufficient").
func BenchmarkAblationDPISteps(b *testing.B) {
	samples, w, lo, hi := ablationWorkload(b)
	for _, steps := range []int{0, 1, 2, 3, 4} {
		steps := steps
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			var mre float64
			for i := 0; i < b.N; i++ {
				ctx, err := kde.NewFitContext(samples)
				if err != nil {
					b.Fatal(err)
				}
				h, err := bandwidth.DPIBandwidthContext(ctx, kernel.Epanechnikov{}, steps, lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				est, err := kde.New(samples, kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(est, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// BenchmarkAblationHybridSplits varies the hybrid's change-point budget on
// the clustered arap1 stand-in.
func BenchmarkAblationHybridSplits(b *testing.B) {
	env := benchEnv()
	f, err := env.File("arap1")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := env.DefaultSample("arap1")
	if err != nil {
		b.Fatal(err)
	}
	w, err := env.Workload("arap1", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.Domain()
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	for _, cp := range []int{1, 3, 7, 15, 31} {
		cp := cp
		b.Run(fmt.Sprintf("cp=%02d", cp), func(b *testing.B) {
			var mre float64
			for i := 0; i < b.N; i++ {
				est, err := hybrid.New(sorted, lo, hi, hybrid.Config{MaxChangePoints: cp})
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(est, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// BenchmarkAblationAdaptiveBandwidth compares fixed-bandwidth, variable-
// bandwidth (Abramson) and hybrid estimation on the clustered arap1
// stand-in — three answers to the same non-smoothness problem.
func BenchmarkAblationAdaptiveBandwidth(b *testing.B) {
	env := benchEnv()
	f, err := env.File("arap1")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := env.DefaultSample("arap1")
	if err != nil {
		b.Fatal(err)
	}
	w, err := env.Workload("arap1", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := f.Domain()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"fixed", core.Options{Method: core.Kernel, Boundary: kde.BoundaryKernels}},
		{"variable", core.Options{Method: core.VariableKernel, Boundary: kde.BoundaryReflect}},
		{"hybrid", core.Options{Method: core.Hybrid}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			o := v.opts
			o.DomainLo, o.DomainHi = lo, hi
			var mre float64
			for i := 0; i < b.N; i++ {
				est, err := core.Build(samples, o)
				if err != nil {
					b.Fatal(err)
				}
				mre, _ = errmetrics.MRE(est, w)
			}
			b.ReportMetric(mre, "MRE")
		})
	}
}

// --- extension-experiment benches ---

// BenchmarkExtRates regenerates the MISE convergence-rate check and
// reports the fitted slopes (theory: −0.8 kernel, −0.667 histogram).
func BenchmarkExtRates(b *testing.B) {
	rep := runDriver(b, "ext-rates")
	// Slopes are recomputed from the series to avoid exporting internals.
	slope := func(s experiments.Series) float64 {
		n := float64(len(s.X))
		var sx, sy, sxx, sxy float64
		for i := range s.X {
			x, y := math.Log(s.X[i]), math.Log(s.Y[i])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		return (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	b.ReportMetric(slope(rep.Series[0]), "slope-kernel")
	b.ReportMetric(slope(rep.Series[1]), "slope-ewh")
}

// BenchmarkExtFeedback regenerates the feedback experiment and reports
// base vs adaptive held-out MRE.
func BenchmarkExtFeedback(b *testing.B) {
	rep := runDriver(b, "ext-feedback")
	tableMetric(b, rep, "arap1", "MRE base", "MRE-base")
	tableMetric(b, rep, "arap1", "MRE adaptive", "MRE-adaptive")
}

// BenchmarkExt2D regenerates the 2-D comparison.
func BenchmarkExt2D(b *testing.B) {
	rep := runDriver(b, "ext-2d")
	tableMetric(b, rep, "corr(x,y)", "MRE 2-D kernel", "MRE-kernel2d")
	tableMetric(b, rep, "corr(x,y)", "MRE 2-D grid", "MRE-grid2d")
	tableMetric(b, rep, "corr(x,y)", "MRE independence", "MRE-indep")
}

// BenchmarkExtSketch regenerates the sketch comparison on n(20).
func BenchmarkExtSketch(b *testing.B) {
	rep := runDriver(b, "ext-sketch")
	tableMetric(b, rep, "n(20)", "MRE exact", "MRE-exact")
	tableMetric(b, rep, "n(20)", "MRE sketch", "MRE-sketch")
}

// BenchmarkExtJoin regenerates the join-size estimation experiment.
func BenchmarkExtJoin(b *testing.B) {
	rep := runDriver(b, "ext-join")
	tableMetric(b, rep, "equi-join", "rel err", "relerr-equi")
	tableMetric(b, rep, "band-join", "rel err", "relerr-band")
}

// BenchmarkExtAll regenerates the grand comparison and reports the
// kernel/hybrid headline cells.
func BenchmarkExtAll(b *testing.B) {
	rep := runDriver(b, "ext-all")
	tableMetric(b, rep, "n(20)", "kernel", "MRE-kernel-n20")
	tableMetric(b, rep, "arap1", "hybrid", "MRE-hybrid-arap1")
}
