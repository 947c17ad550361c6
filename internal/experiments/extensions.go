package experiments

import (
	"fmt"
	"math"

	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/dist"
	"selest/internal/distinct"
	"selest/internal/errmetrics"
	"selest/internal/feedback"
	"selest/internal/fsort"
	"selest/internal/histogram"
	"selest/internal/join"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/query"
	"selest/internal/sample"
	"selest/internal/sketch"
	"selest/internal/xmath"
	"selest/internal/xrand"
)

// This file holds extension experiments that go beyond the paper's
// figures: an empirical check of the convergence-rate theory of §2/§4, a
// demonstration of query-feedback adaptation (future work #3), and the
// two-dimensional product-kernel estimator (future work #1).

// ExtRates verifies the paper's convergence-rate theory empirically: with
// the asymptotically optimal smoothing parameter, the kernel estimator's
// MISE falls like O(n^{−4/5}) and the equi-width histogram's like
// O(n^{−2/3}) (paper §4.1/§4.2). The driver measures the empirical MISE
// against an analytic Normal truth over a grid of sample sizes and fits
// log-log slopes.
func ExtRates(env *Env) (*Report, error) {
	truth := dist.NewNormal(0, 1)
	r1 := dist.RoughnessFirst(truth)
	r2 := dist.RoughnessSecond(truth)
	sizes := []int{100, 200, 400, 800, 1600, 3200, 6400}
	const trials = 6
	lo, hi := -4.5, 4.5
	grid := xmath.Linspace(lo, hi, 512)
	dx := grid[1] - grid[0]

	rng := xrand.New(env.Config().Seed ^ 0xabcdef)
	miseOf := func(density func(float64) float64) float64 {
		sum := 0.0
		for _, x := range grid {
			d := density(x) - truth.PDF(x)
			sum += d * d
		}
		return sum * dx
	}

	kernelSeries := Series{Name: "kernel MISE (h = h_K(n))"}
	histSeries := Series{Name: "equi-width MISE (h = h_EW(n))"}
	for _, n := range sizes {
		var mK, mH float64
		for trial := 0; trial < trials; trial++ {
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = truth.Sample(rng)
			}
			fsort.Float64s(samples)
			hK := bandwidth.OptimalBandwidth(n, kernel.Epanechnikov{}, r2)
			est, err := kde.New(samples, kde.Config{Bandwidth: hK})
			if err != nil {
				return nil, err
			}
			mK += miseOf(est.Density)

			hEW := bandwidth.OptimalBinWidth(n, r1)
			bins := bandwidth.BinsForWidth(hEW, lo, hi, 0)
			hist, err := histogram.BuildEquiWidth(samples, bins, lo, hi)
			if err != nil {
				return nil, err
			}
			mH += miseOf(hist.Density)
		}
		kernelSeries.X = append(kernelSeries.X, float64(n))
		kernelSeries.Y = append(kernelSeries.Y, mK/trials)
		histSeries.X = append(histSeries.X, float64(n))
		histSeries.Y = append(histSeries.Y, mH/trials)
	}

	kSlope := logLogSlope(kernelSeries)
	hSlope := logLogSlope(histSeries)
	rep := &Report{
		ID:     "ext-rates",
		Title:  "empirical MISE convergence rates (extension: theory check of §4)",
		Series: []Series{kernelSeries, histSeries},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fitted log-log slopes: kernel %.3f (theory −0.8), equi-width %.3f (theory −0.667)", kSlope, hSlope))
	return rep, nil
}

// logLogSlope fits the least-squares slope of log(Y) against log(X).
func logLogSlope(s Series) float64 {
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

// ExtFeedback demonstrates query-feedback adaptation (paper future work
// #3): a normal-scale kernel estimator on the clustered arap1 stand-in is
// wrapped with the feedback corrector, trained on half the workload, and
// evaluated on the held-out half.
func ExtFeedback(env *Env) (*Report, error) {
	const file = "arap1"
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
	base, err := core.Build(samples, core.Options{Method: core.Kernel, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return nil, err
	}
	ad, err := feedback.New(base, lo, hi, feedback.Config{Buckets: 256})
	if err != nil {
		return nil, err
	}
	half := len(w.Queries) / 2
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < half; i++ {
			ad.Observe(w.Queries[i].A, w.Queries[i].B, w.TrueSelectivity(i))
		}
	}
	heldOut := &query.Workload{
		Queries:    w.Queries[half:],
		TrueCounts: w.TrueCounts[half:],
		SizeFrac:   w.SizeFrac,
		N:          w.N,
	}
	baseMRE, _ := errmetrics.MRE(base, heldOut)
	adMRE, _ := errmetrics.MRE(ad, heldOut)
	rep := &Report{
		ID:    "ext-feedback",
		Title: "adaptive estimation from query feedback (extension: future work #3)",
		Table: &Table{
			Columns: []string{"MRE base", "MRE adaptive"},
			Rows: []TableRow{
				{Label: file, Values: []float64{baseMRE, adMRE}},
			},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"held-out MRE after 3 feedback passes over %d executed queries: %.3f → %.3f", half, baseMRE, adMRE))
	return rep, nil
}

// ExtSketch compares the sample-based equi-depth histogram against a
// streaming equi-depth histogram whose boundaries come from a
// Greenwald–Khanna quantile sketch fed with the entire file — the
// deployment mode where statistics are maintained on the insert path
// instead of by periodic resampling.
func ExtSketch(env *Env) (*Report, error) {
	rep := &Report{
		ID:    "ext-sketch",
		Title: "sampled vs. exact vs. sketch-based equi-depth histograms (extension, 1% queries)",
		Table: &Table{Columns: []string{"MRE sampled", "MRE exact", "MRE sketch", "sketch tuples"}},
	}
	for _, file := range []string{"n(20)", "e(20)", "arap1", "iw"} {
		f, err := env.File(file)
		if err != nil {
			return nil, err
		}
		samples, err := env.DefaultSample(file)
		if err != nil {
			return nil, err
		}
		w, err := env.Workload(file, 0.01)
		if err != nil {
			return nil, err
		}
		lo, hi := f.Domain()
		sorted := sortedCopy(samples)
		width, err := bandwidth.NormalScaleBinWidthSorted(sorted)
		if err != nil {
			return nil, err
		}
		bins := max(bandwidth.BinsForWidth(width, lo, hi, 8192), 10)
		sampled, err := histogram.BuildEquiDepth(sorted, bins)
		if err != nil {
			return nil, err
		}
		sampMRE, _ := errmetrics.MRE(sampled, w)

		// Exact equi-depth over the full file: the reference the sketch
		// approximates.
		exact, err := histogram.BuildEquiDepth(sortedCopy(f.Records), bins)
		if err != nil {
			return nil, err
		}
		exactMRE, _ := errmetrics.MRE(exact, w)

		gk, err := sketch.NewGK(0.002)
		if err != nil {
			return nil, err
		}
		for _, v := range f.Records {
			gk.Insert(v)
		}
		sk, err := sketch.EquiDepthFromSketch(gk, bins)
		if err != nil {
			return nil, err
		}
		skMRE, _ := errmetrics.MRE(sk, w)
		rep.Table.Rows = append(rep.Table.Rows, TableRow{
			Label:  file,
			Values: []float64{sampMRE, exactMRE, skMRE, float64(gk.Summary())},
		})
	}
	rep.Notes = append(rep.Notes,
		"the sketch tracks the exact full-data equi-depth histogram closely while storing only O((1/ε)·log n) tuples; where the sampled histogram beats both, the cause is tail geometry (sample-based boundaries implicitly truncate extreme tails, which the MRE metric rewards), not sketch error")
	return rep, nil
}

// Ext2D evaluates the two-dimensional product-kernel estimator (paper
// future work #1) on correlated data, against the attribute-independence
// assumption (product of two 1-D kernel estimates), which every
// single-column statistics catalog implicitly makes.
func Ext2D(env *Env) (*Report, error) {
	cfg := env.Config()
	rng := xrand.New(cfg.Seed ^ 0x2d2d2d)
	const n = 20000
	lo, hi := 0.0, 1000.0
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		// Strong correlation: y ≈ x plus noise.
		xs[i] = xmath.Clamp(rng.NormalMeanStd(500, 180), lo, hi)
		ys[i] = xmath.Clamp(xs[i]+rng.NormalMeanStd(0, 60), lo, hi)
	}

	sx := xs[:cfg.SampleSize]
	sy := ys[:cfg.SampleSize]
	hx, err := bandwidth.NormalScaleBandwidthSorted(sortedCopy(sx), kernel.Epanechnikov{})
	if err != nil {
		return nil, err
	}
	hy, err := bandwidth.NormalScaleBandwidthSorted(sortedCopy(sy), kernel.Epanechnikov{})
	if err != nil {
		return nil, err
	}
	joint, err := kde.New2D(sx, sy, kde.Config2D{
		BandwidthX: hx, BandwidthY: hy,
		Reflect: true, LoX: lo, HiX: hi, LoY: lo, HiY: hi,
	})
	if err != nil {
		return nil, err
	}
	margX, err := kde.New(sx, kde.Config{Bandwidth: hx, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return nil, err
	}
	margY, err := kde.New(sy, kde.Config{Bandwidth: hy, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return nil, err
	}
	grid, err := histogram.BuildGrid2D(sx, sy, 16, 16, lo, hi, lo, hi)
	if err != nil {
		return nil, err
	}

	// Window workload along the correlation diagonal and off it.
	qrng := xrand.New(cfg.Seed ^ 0x77)
	var jointErr, indepErr, gridErr float64
	used := 0
	for q := 0; q < cfg.QueryCount; q++ {
		i := qrng.Intn(n)
		cx, cy := xs[i], ys[i]
		wx, wy := 100.0, 100.0
		ax, bx := xmath.Clamp(cx-wx/2, lo, hi), xmath.Clamp(cx+wx/2, lo, hi)
		ay, by := xmath.Clamp(cy-wy/2, lo, hi), xmath.Clamp(cy+wy/2, lo, hi)
		trueCount := 0
		for j := 0; j < n; j++ {
			if xs[j] >= ax && xs[j] <= bx && ys[j] >= ay && ys[j] <= by {
				trueCount++
			}
		}
		if trueCount == 0 {
			continue
		}
		trueSel := float64(trueCount) / n
		jSel := joint.Selectivity(ax, bx, ay, by)
		iSel := margX.Selectivity(ax, bx) * margY.Selectivity(ay, by)
		gSel := grid.Selectivity(ax, bx, ay, by)
		jointErr += math.Abs(jSel-trueSel) / trueSel
		indepErr += math.Abs(iSel-trueSel) / trueSel
		gridErr += math.Abs(gSel-trueSel) / trueSel
		used++
	}
	if used == 0 {
		return nil, fmt.Errorf("experiments: ext-2d produced no usable queries")
	}
	rep := &Report{
		ID:    "ext-2d",
		Title: "2-D product-kernel estimation vs. attribute independence (extension: future work #1)",
		Table: &Table{
			Columns: []string{"MRE 2-D kernel", "MRE 2-D grid", "MRE independence"},
			Rows: []TableRow{
				{Label: "corr(x,y)", Values: []float64{jointErr / float64(used), gridErr / float64(used), indepErr / float64(used)}},
			},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"on strongly correlated attributes the independence assumption's MRE is %.1f× the 2-D kernel's",
		(indepErr/float64(used))/(jointErr/float64(used))))
	return rep, nil
}

// ExtJoin evaluates kernel-density join-size estimation (the intermediate
// result-size problem from the paper's introduction): two synthetic
// relations with partially overlapping normal attributes are equi- and
// band-joined; the density-product estimate from 2,000-record samples is
// compared against the exact join sizes and the textbook
// 1/max(distinct) uniform assumption.
func ExtJoin(env *Env) (*Report, error) {
	cfg := env.Config()
	rng := xrand.New(cfg.Seed ^ 0x01014)
	const (
		nR, nS = 80000, 60000
		lo, hi = 0.0, 1 << 16
	)
	mk := func(n int, mean, std float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Round(xmath.Clamp(rng.NormalMeanStd(mean, std), lo, hi))
		}
		return out
	}
	rCol := mk(nR, 26000, 6000)
	sCol := mk(nS, 34000, 7000)

	rSmp, err := sample.WithoutReplacement(rng, rCol, cfg.SampleSize)
	if err != nil {
		return nil, err
	}
	sSmp, err := sample.WithoutReplacement(rng, sCol, cfg.SampleSize)
	if err != nil {
		return nil, err
	}
	kdeOf := func(samples []float64) (*kde.Estimator, error) {
		ctx, err := kde.NewFitContext(samples)
		if err != nil {
			return nil, err
		}
		h, err := bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{})
		if err != nil {
			return nil, err
		}
		return ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	}
	fR, err := kdeOf(rSmp)
	if err != nil {
		return nil, err
	}
	fS, err := kdeOf(sSmp)
	if err != nil {
		return nil, err
	}

	// The uniform (System R) comparison |R|·|S| / max(V(R,a), V(S,b)),
	// with the distinct counts V estimated from the same samples via GEE —
	// what a real optimiser would have at plan time.
	ndv := func(smp []float64, tableSize int) (float64, error) {
		prof, err := distinct.Profile(smp)
		if err != nil {
			return 0, err
		}
		return prof.GEE(tableSize)
	}
	vR, err := ndv(rSmp, nR)
	if err != nil {
		return nil, err
	}
	vS, err := ndv(sSmp, nS)
	if err != nil {
		return nil, err
	}
	uniformEst := float64(nR) * float64(nS) / math.Max(vR, vS)

	exactEqui := join.ExactEquiJoin(rCol, sCol)
	kdeEqui, err := join.Estimate(fR, fS, nR, nS, lo, hi, 1, 0)
	if err != nil {
		return nil, err
	}
	const band = 64
	exactBand := join.ExactBandJoin(rCol, sCol, band)
	kdeBand, err := join.EstimateBand(fR, fS, nR, nS, lo, hi, band, 0)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "ext-join",
		Title: "join result-size estimation from kernel densities (extension)",
		Table: &Table{
			Columns: []string{"exact", "kernel est", "rel err", "uniform est"},
			Rows: []TableRow{
				{Label: "equi-join", Values: []float64{float64(exactEqui), kdeEqui, join.RelativeError(kdeEqui, exactEqui), uniformEst}},
				{Label: "band-join", Values: []float64{float64(exactBand), kdeBand, join.RelativeError(kdeBand, exactBand), math.NaN()}},
			},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"kernel-density join estimates land within %.0f%%/%.0f%% of the exact equi-/band-join sizes; the uniform assumption misses the distribution overlap entirely (%.1f× the true equi-join size)",
		100*join.RelativeError(kdeEqui, exactEqui), 100*join.RelativeError(kdeBand, exactBand), uniformEst/float64(exactEqui)))
	return rep, nil
}
