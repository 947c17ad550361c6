package experiments

import (
	"fmt"
	"math"

	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/errmetrics"
	"selest/internal/kde"
	"selest/internal/online"
	"selest/internal/query"
	"selest/internal/xrand"
)

// extBandwidthRules is the ablation column set: the paper's searched
// rules against the closed-form engine, with the MRE-minimising oracle
// as the floor. Each rule is evaluated on its native estimator — the
// searched rules on the fig12 kernel configuration (boundary kernels),
// the closed-form rules on the beta-kernel estimator they were derived
// for, the oracle on the fig12 configuration over an h grid.
var extBandwidthRules = []string{"normal-scale", "dpi", "lscv", "beta-closed-form", "exact-mise", "oracle"}

// extBandwidthBuild fits one (rule, file) cell and returns the estimator
// plus its selected bandwidth (so the report can show what each rule
// chose — fit wall time is benchmarked separately in BENCH_refit, where
// it belongs: wall clock in a report would make parallel and sequential
// runs render differently).
func extBandwidthBuild(rule string, samples []float64, lo, hi float64, w *query.Workload) (core.Estimator, float64, error) {
	var (
		est core.Estimator
		err error
	)
	switch rule {
	case "beta-closed-form":
		est, err = core.Build(samples, core.Options{Method: core.BetaKernel, Rule: core.BetaClosedForm, DomainLo: lo, DomainHi: hi})
	case "exact-mise":
		est, err = core.Build(samples, core.Options{Method: core.BetaKernel, Rule: core.ExactMISE, DomainLo: lo, DomainHi: hi})
	case "oracle":
		ctx, cerr := kde.NewFitContext(samples)
		if cerr != nil {
			return nil, 0, cerr
		}
		span := hi - lo
		loss := func(h float64) float64 {
			cand, ferr := ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
			if ferr != nil {
				return math.Inf(1)
			}
			mre, _ := errmetrics.MRE(cand, w)
			return mre
		}
		h, oerr := bandwidth.OracleWorkers(loss, span/1e4, span/2, 25, 0)
		if oerr != nil {
			return nil, 0, oerr
		}
		est, err = core.Build(samples, core.Options{Method: core.Kernel, Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
	default:
		est, err = core.Build(samples, core.Options{Method: core.Kernel, Rule: core.BandwidthRule(rule), Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi})
	}
	var h float64
	switch e := est.(type) {
	case *kde.Estimator:
		h = e.Bandwidth()
	case *kde.BetaEstimator:
		h = e.Bandwidth()
	}
	return est, h, err
}

// ExtBandwidth ablates the closed-form bandwidth engine: MRE of the
// beta-closed-form and exact-mise rules against the searched rules
// (normal scale, DPI, LSCV) and the MRE-oracle over the promising-files
// set, per-rule selected bandwidth and median q-error, and an online drift
// run comparing the closed-form refit path against the DPI refit path
// on a location-shifting stream.
func ExtBandwidth(env *Env) (*Report, error) {
	files := PromisingFiles()
	rep := &Report{
		ID:    "ext-bandwidth",
		Title: "closed-form bandwidth engine vs searched rules (MRE, 1% queries)",
		Table: &Table{Columns: extBandwidthRules},
	}

	type fileInput struct {
		lo, hi  float64
		samples []float64
		w       *query.Workload
	}
	inputs := make([]fileInput, len(files))
	for i, file := range files {
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
		inputs[i] = fileInput{lo: lo, hi: hi, samples: samples, w: w}
	}

	nRules := len(extBandwidthRules)
	mres := make([]float64, len(files)*nRules)
	qmeds := make([]float64, len(files)*nRules)
	hfracs := make([]float64, len(files)*nRules)
	err := forEach(len(mres), env.workers(), func(idx int) error {
		fi, ri := idx/nRules, idx%nRules
		in, rule := inputs[fi], extBandwidthRules[ri]
		est, h, err := extBandwidthBuild(rule, in.samples, in.lo, in.hi, in.w)
		if err != nil {
			return fmt.Errorf("ext-bandwidth: %s on %s: %w", rule, files[fi], err)
		}
		mre, _ := errmetrics.MRE(est, in.w)
		mres[idx] = mre
		qmeds[idx] = errmetrics.QErrors(est, in.w).Median
		hfracs[idx] = h / (in.hi - in.lo)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for fi, file := range files {
		rep.Table.Rows = append(rep.Table.Rows, TableRow{Label: file, Values: mres[fi*nRules : (fi+1)*nRules]})
	}
	// Per-rule summary: mean MRE, median q-error, and the mean selected
	// bandwidth as a fraction of the domain — what each rule chose, not
	// just how it scored.
	for ri, rule := range extBandwidthRules {
		var mreSum, qSum, hSum float64
		for fi := range files {
			mreSum += mres[fi*nRules+ri]
			qSum += qmeds[fi*nRules+ri]
			hSum += hfracs[fi*nRules+ri]
		}
		k := float64(len(files))
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%-16s mean MRE %.3f, mean median-q-error %.2f, mean h/span %.4f",
			rule, mreSum/k, qSum/k, hSum/k))
	}

	if err := extBandwidthDrift(env, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// extBandwidthDrift streams a location-shifting mixture through two
// online estimators — the DPI refit path and the closed-form refit path
// — and records each stage's MRE against the stage's own records. Both
// engines share cadence, reservoir size and seed, so the curves isolate
// the bandwidth rule.
func extBandwidthDrift(env *Env, rep *Report) error {
	const (
		stages     = 8
		perStage   = 10_000
		reservoir  = 2_000
		domainLo   = 0.0
		domainHi   = 1e6
		queryCount = 200
	)
	seed := env.Config().Seed ^ 0xbeefcafe

	dpiBuilder := func(samples []float64) (online.Fitted, error) {
		return core.Build(samples, core.Options{Method: core.Kernel, Rule: core.DPI, Boundary: kde.BoundaryKernels, DomainLo: domainLo, DomainHi: domainHi})
	}
	engines := []struct {
		name  string
		build online.Builder
	}{
		{"dpi under drift", dpiBuilder},
		{"beta-closed-form under drift", online.ClosedFormBuilder(0, 0)},
	}

	series := make([]Series, len(engines))
	ests := make([]*online.Estimator, len(engines))
	for i, eng := range engines {
		est, err := online.New(eng.build, online.Config{ReservoirSize: reservoir, RefitEvery: reservoir, Seed: seed})
		if err != nil {
			return err
		}
		ests[i] = est
		series[i] = Series{Name: eng.name}
	}

	r := xrand.New(seed)
	qrng := xrand.New(seed ^ 0x51)
	window := make([]float64, perStage)
	for stage := 0; stage < stages; stage++ {
		// A three-component mixture whose location walks a quarter of the
		// domain over the run — enough to leave the initial fit useless.
		shift := float64(stage) * (domainHi / 4 / stages)
		for i := range window {
			var x float64
			switch i % 3 {
			case 0:
				x = 1e5 + shift + r.Float64()*5e4
			case 1:
				x = 3e5 + shift + r.Float64()*1e4
			default:
				x = 2e5 + shift + r.Float64()*3e5
			}
			window[i] = x
		}
		w, err := query.Generate(window, domainLo, domainHi, 0.05, queryCount, qrng)
		if err != nil {
			return err
		}
		for i := range engines {
			for _, x := range window {
				ests[i].Insert(x)
			}
			if err := ests[i].Flush(); err != nil {
				return err
			}
			mre, _ := errmetrics.MRE(ests[i], w)
			series[i].X = append(series[i].X, float64(stage))
			series[i].Y = append(series[i].Y, mre)
		}
	}
	rep.Series = append(rep.Series, series...)

	var last [2]float64
	for i := range series {
		last[i] = series[i].Y[len(series[i].Y)-1]
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"drift: final-stage MRE dpi %.3f vs beta-closed-form %.3f over %d stages (shift %.0f/stage)",
		last[0], last[1], stages, domainHi/4/stages))
	return nil
}
