package experiments

import (
	"fmt"
	"math"

	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/errmetrics"
	"selest/internal/histogram"
	"selest/internal/hybrid"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/query"
	"selest/internal/sample"
)

// oracleBinsFor finds the observed-optimal bin count for a histogram
// builder on one workload — the paper's "optimum number of bins we
// observed in our experiments".
func oracleBinsFor(build func(k int) (errmetrics.Estimator, error), w *query.Workload) (int, error) {
	return bandwidth.OracleBinsWorkers(func(k int) float64 {
		est, err := build(k)
		if err != nil {
			return math.Inf(1)
		}
		mre, _ := errmetrics.MRE(est, w)
		if math.IsNaN(mre) {
			return math.Inf(1)
		}
		return mre
	}, 2, 2000, 0)
}

// Fig8 reproduces figure 8: the MRE of 1% queries for equi-width,
// equi-depth and max-diff histograms (each at its observed-optimal bin
// count), pure sampling, and the uniform estimator, across the data files.
// Expected shape: uniform loses badly everywhere except uniform data;
// equi-width ≳ equi-depth on large metric domains; sampling trails the
// histograms.
// Each data file is one independent cell — every row lands in its own
// slot, so the table is identical at any worker count.
func Fig8(env *Env) (*Report, error) {
	rep := &Report{
		ID:    "fig8",
		Title: "histogram estimators vs. sampling and the uniform assumption (1% queries, optimal bins)",
		Table: &Table{Columns: []string{"EWH", "EDH", "MDH", "sample", "uniform"}},
	}
	files := PromisingFiles()
	rows := make([]TableRow, len(files))
	err := forEach(len(files), env.workers(), func(i int) error {
		file := files[i]
		f, err := env.File(file)
		if err != nil {
			return err
		}
		lo, hi := f.Domain()
		samples, err := env.DefaultSample(file)
		if err != nil {
			return err
		}
		w, err := env.Workload(file, 0.01)
		if err != nil {
			return err
		}

		mreAtOptimum := func(build func(k int) (errmetrics.Estimator, error)) float64 {
			k, err := oracleBinsFor(build, w)
			if err != nil {
				return math.NaN()
			}
			est, err := build(k)
			if err != nil {
				return math.NaN()
			}
			mre, _ := errmetrics.MRE(est, w)
			return mre
		}

		ewh := mreAtOptimum(func(k int) (errmetrics.Estimator, error) {
			return histogram.BuildEquiWidth(samples, k, lo, hi)
		})
		sorted := sortedCopy(samples)
		edh := mreAtOptimum(func(k int) (errmetrics.Estimator, error) {
			return histogram.BuildEquiDepthSorted(sorted, k)
		})
		mdh := mreAtOptimum(func(k int) (errmetrics.Estimator, error) {
			return histogram.BuildMaxDiff(samples, k)
		})
		sampMRE, _ := errmetrics.MRE(sample.NewPureEstimator(samples), w)
		uni, err := histogram.BuildUniform(samples, lo, hi)
		if err != nil {
			return err
		}
		uniMRE, _ := errmetrics.MRE(uni, w)

		rows[i] = TableRow{
			Label:  file,
			Values: []float64{ewh, edh, mdh, sampMRE, uniMRE},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Table.Rows = rows
	rep.Notes = append(rep.Notes,
		"paper: uniform is the overall loser (600% on ci/iw-like data); equi-width generally wins on large metric domains, contradicting the small-domain results of Poosala et al.")
	return rep, nil
}

// Fig9 reproduces figure 9: equi-width histograms with the
// observed-optimal bin count (h-opt) against the normal scale rule (h-NS).
// Expected shape: h-NS within a few points of h-opt on every file.
func Fig9(env *Env) (*Report, error) {
	rep := &Report{
		ID:    "fig9",
		Title: "equi-width histograms: observed-optimal vs. normal scale bin counts (1% queries)",
		Table: &Table{Columns: []string{"MRE h-opt", "MRE h-NS", "bins opt", "bins NS"}},
	}
	var worstGap float64
	for _, file := range PromisingFiles() {
		f, err := env.File(file)
		if err != nil {
			return nil, err
		}
		lo, hi := f.Domain()
		samples, err := env.DefaultSample(file)
		if err != nil {
			return nil, err
		}
		w, err := env.Workload(file, 0.01)
		if err != nil {
			return nil, err
		}
		build := func(k int) (errmetrics.Estimator, error) {
			return histogram.BuildEquiWidth(samples, k, lo, hi)
		}
		kOpt, err := oracleBinsFor(build, w)
		if err != nil {
			return nil, err
		}
		hOpt, err := build(kOpt)
		if err != nil {
			return nil, err
		}
		mreOpt, _ := errmetrics.MRE(hOpt, w)

		width, err := bandwidth.NormalScaleBinWidthSorted(sortedCopy(samples))
		if err != nil {
			return nil, err
		}
		kNS := bandwidth.BinsForWidth(width, lo, hi, 8192)
		hNS, err := build(kNS)
		if err != nil {
			return nil, err
		}
		mreNS, _ := errmetrics.MRE(hNS, w)

		if gap := mreNS - mreOpt; gap > worstGap {
			worstGap = gap
		}
		rep.Table.Rows = append(rep.Table.Rows, TableRow{
			Label:  file,
			Values: []float64{mreOpt, mreNS, float64(kOpt), float64(kNS)},
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("worst h-NS excess over h-opt: %.3f MRE (paper: about 3%% on average)", worstGap))
	return rep, nil
}

// Fig10 reproduces figure 10: the relative error of 1% queries as a
// function of position on uniform data for the three boundary policies.
// Expected shape: untreated error explodes at the boundaries; both
// treatments flatten it, boundary kernels slightly ahead of reflection.
func Fig10(env *Env) (*Report, error) {
	const file = "u(20)"
	f, err := env.File(file)
	if err != nil {
		return nil, err
	}
	samples, err := env.DefaultSample(file)
	if err != nil {
		return nil, err
	}
	lo, hi := f.Domain()
	sweep, err := query.PositionSweep(f.Records, lo, hi, 0.01, 200)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig10", Title: "relative error of 1% queries vs. position for boundary treatments (uniform data)"}
	type modeRow struct {
		name string
		mode kde.BoundaryMode
	}
	var edgeErr []float64
	for _, m := range []modeRow{
		{"no treatment", kde.BoundaryNone},
		{"reflection", kde.BoundaryReflect},
		{"boundary kernels", kde.BoundaryKernels},
	} {
		est, err := core.Build(samples, core.Options{Method: core.Kernel, Boundary: m.mode, DomainLo: lo, DomainHi: hi})
		if err != nil {
			return nil, err
		}
		points := errmetrics.ByPosition(est, sweep)
		s := Series{Name: m.name}
		for _, p := range points {
			s.X = append(s.X, p.Pos/(hi-lo))
			s.Y = append(s.Y, p.Relative)
		}
		rep.Series = append(rep.Series, s)
		edgeErr = append(edgeErr, math.Max(s.Y[0], s.Y[len(s.Y)-1]))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"worst boundary relative error: none %.3f, reflection %.3f, boundary kernels %.3f (paper: both treatments reduce the error considerably; boundary kernels slightly ahead)",
		edgeErr[0], edgeErr[1], edgeErr[2]))
	return rep, nil
}

// Fig11 reproduces figure 11: kernel estimators (boundary kernels) whose
// bandwidths come from the oracle (h-opt), the normal scale rule (h-NS)
// and the 2-step direct plug-in rule (h-DPI2). Expected shape: h-NS good
// on the synthetic files; h-DPI2 clearly better on the clustered
// "real"-data stand-ins.
func Fig11(env *Env) (*Report, error) {
	rep := &Report{
		ID:    "fig11",
		Title: "kernel estimation: bandwidth selection rules (1% queries)",
		Table: &Table{Columns: []string{"h-opt", "h-NS", "h-DPI2"}},
	}
	for _, file := range PromisingFiles() {
		f, err := env.File(file)
		if err != nil {
			return nil, err
		}
		lo, hi := f.Domain()
		samples, err := env.DefaultSample(file)
		if err != nil {
			return nil, err
		}
		w, err := env.Workload(file, 0.01)
		if err != nil {
			return nil, err
		}
		// One fit context covers all 49 oracle candidates, the NS rule, the
		// DPI pilots, and the three final estimators: one sort per file
		// instead of one per candidate. ctx.NewEstimator is safe for the
		// oracle's concurrent loss evaluations.
		ctx, err := kde.NewFitContext(samples)
		if err != nil {
			return nil, err
		}
		mreFor := func(h float64) float64 {
			est, err := ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
			if err != nil {
				return math.Inf(1)
			}
			mre, _ := errmetrics.MRE(est, w)
			if math.IsNaN(mre) {
				return math.Inf(1)
			}
			return mre
		}
		hNS, err := bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{})
		if err != nil {
			return nil, err
		}
		hOpt, err := bandwidth.OracleWorkers(mreFor, hNS/64, hNS*64, 49, env.workers())
		if err != nil {
			return nil, err
		}
		hDPI, err := bandwidth.DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, lo, hi)
		if err != nil {
			return nil, err
		}
		rep.Table.Rows = append(rep.Table.Rows, TableRow{
			Label:  file,
			Values: []float64{mreFor(hOpt), mreFor(hNS), mreFor(hDPI)},
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: h-NS slightly ahead of h-DPI2 on synthetic files; h-DPI2 clearly ahead on real data; h-DPI2 within ~5 points of h-opt")
	return rep, nil
}

// Fig12 reproduces figure 12: the most promising estimators — equi-width
// histograms (h-NS), kernel estimators (boundary kernels, h-DPI2), the
// hybrid estimator, and the average shifted histogram — on 1% queries
// across the data files. Expected shape: kernel best on smooth synthetic
// files (ASH close); hybrid best on the clustered stand-ins.
func Fig12(env *Env) (*Report, error) {
	rep := &Report{
		ID:    "fig12",
		Title: "comparison of the most promising estimators (1% queries)",
		Table: &Table{Columns: []string{"EWH", "Kernel", "Hybrid", "ASH"}},
	}
	files := PromisingFiles()
	rows := make([]TableRow, len(files))
	err := forEach(len(files), env.workers(), func(i int) error {
		file := files[i]
		f, err := env.File(file)
		if err != nil {
			return err
		}
		lo, hi := f.Domain()
		samples, err := env.DefaultSample(file)
		if err != nil {
			return err
		}
		w, err := env.Workload(file, 0.01)
		if err != nil {
			return err
		}
		ewh, err := core.Build(samples, core.Options{Method: core.EquiWidth, DomainLo: lo, DomainHi: hi})
		if err != nil {
			return err
		}
		kern, err := core.Build(samples, core.Options{
			Method: core.Kernel, Boundary: kde.BoundaryKernels, Rule: core.DPI, DomainLo: lo, DomainHi: hi,
		})
		if err != nil {
			return err
		}
		hyb, err := hybrid.New(samples, lo, hi, hybrid.Config{})
		if err != nil {
			return err
		}
		ash, err := core.Build(samples, core.Options{Method: core.ASH, DomainLo: lo, DomainHi: hi})
		if err != nil {
			return err
		}
		row := TableRow{Label: file}
		for _, est := range []errmetrics.Estimator{ewh, kern, hyb, ash} {
			mre, _ := errmetrics.MRE(est, w)
			row.Values = append(row.Values, mre)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Table.Rows = rows
	rep.Notes = append(rep.Notes,
		"paper: kernel most accurate on u(20)/n(20)/e(20) with ASH slightly behind; hybrid most accurate on the TIGER files; near-tie on ci/iw")
	return rep, nil
}
