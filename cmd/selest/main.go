// Command selest builds a selectivity estimator over a column of numbers
// and answers range queries with it — the library's public API on the
// command line.
//
// Input is a text file with one numeric attribute value per line (use "-"
// for stdin), a CSV file (-column selects the field, -header skips the
// first row), or a binary .seld file produced by gendata. Queries are
// given as "a:b" pairs on the command line; with -compare the estimate of
// every method is printed next to the exact answer. -robust builds
// through the graceful-degradation ladder (sanitized input, fallback
// methods on fit failure, guarded estimates); degenerate all-equal data
// always takes that path, serving a point-mass estimator with a warning
// instead of exiting. -online streams the data through the serving
// engine instead — reservoir ingest, refits on the -refit-every cadence,
// one final flush — and answers queries from the last published
// snapshot, reporting "no fit published" rather than a silent zero when
// no snapshot exists.
//
// Examples:
//
//	selest -data values.txt -method kernel -boundary kernels 100:200 5:30
//	selest -data data/n_20.seld -samples 2000 -compare 400000:500000
//	selest -data data/n_20.seld -online -refit-every 100000 400000:500000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"selest"
	"selest/internal/dataset"
	"selest/internal/errmetrics"
	"selest/internal/query"
	"selest/internal/sample"
	"selest/internal/stats"
	"selest/internal/xrand"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "input: text file of numbers, .seld file, or '-' for stdin")
		method      = flag.String("method", "kernel", "estimation method: "+methodList())
		bins        = flag.Int("bins", 0, "histogram bins (0 = normal scale rule)")
		bandwidth   = flag.Float64("bandwidth", 0, "kernel bandwidth (0 = rule)")
		rule        = flag.String("rule", "normal-scale", "smoothing rule: normal-scale | dpi | lscv | beta-closed-form | exact-mise")
		boundary    = flag.String("boundary", "kernels", "kernel boundary treatment: none | reflect | kernels")
		samples     = flag.Int("samples", 2000, "sample-set size drawn from the data")
		seed        = flag.Uint64("seed", 1, "sampling seed")
		compare     = flag.Bool("compare", false, "print every method's estimate next to the exact answer")
		robust      = flag.Bool("robust", false, "build through the graceful-degradation ladder: sanitize input, fall back to simpler methods on fit failure, guard every estimate")
		onlineMode  = flag.Bool("online", false, "stream the data through the online serving engine (reservoir ingest + refits) instead of a one-shot fit")
		refitEvery  = flag.Int("refit-every", 0, "online mode: refit after this many inserts (0 = fill once, flush at end of stream)")
		column      = flag.String("column", "", "CSV input: column name or 0-based index (default: first field)")
		header      = flag.Bool("header", false, "CSV input: first row is a header")
		evaluate    = flag.String("evaluate", "", "evaluate against a .selq workload file instead of answering ad-hoc queries")
		metrics     = flag.Bool("metrics", false, "dump telemetry (Prometheus text format) to stderr before exiting")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address (e.g. :9090) while running")
	)
	flag.Parse()

	if *dataPath == "" || (flag.NArg() == 0 && *evaluate == "") {
		fmt.Fprintln(os.Stderr, "usage: selest -data FILE [flags] a:b [a:b ...]")
		fmt.Fprintln(os.Stderr, "       selest -data FILE [flags] -evaluate workload.selq")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *metricsAddr != "" {
		ln, err := selest.StartMetricsServer(*metricsAddr)
		if err != nil {
			fail(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "selest: metrics on http://%s/metrics\n", ln.Addr())
	}
	if *metrics {
		defer func() {
			if err := selest.WriteMetricsText(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "selest: metrics dump: %v\n", err)
			}
		}()
	}

	values, err := readValuesOpts(*dataPath, *column, *header)
	if err != nil {
		fail(err)
	}
	if len(values) == 0 {
		fail(fmt.Errorf("no values in %s", *dataPath))
	}
	queries, err := parseQueries(flag.Args())
	if err != nil {
		fail(err)
	}

	lo, hi := stats.Min(values), stats.Max(values)
	robustMode := *robust
	if lo == hi {
		// All values equal: no interval structure for a strict fit. The
		// robust ladder's point-mass estimator still answers correctly.
		fmt.Fprintf(os.Stderr, "selest: warning: degenerate data: all values equal %v; serving a point-mass estimator\n", lo)
		robustMode = true
	}
	n := *samples
	if n > len(values) {
		n = len(values)
	}
	smp, err := sample.WithoutReplacement(xrand.New(*seed), values, n)
	if err != nil {
		fail(err)
	}

	m, err := selest.ParseMethod(*method)
	if err != nil {
		fail(err)
	}
	r, err := selest.ParseBandwidthRule(*rule)
	if err != nil {
		fail(err)
	}
	bmode, err := selest.ParseBoundaryMode(*boundary)
	if err != nil {
		fail(err)
	}

	opts := selest.Options{
		Method:    m,
		DomainLo:  lo,
		DomainHi:  hi,
		Bins:      *bins,
		Bandwidth: *bandwidth,
		Rule:      r,
		Boundary:  bmode,
	}

	methods := []selest.Method{opts.Method}
	if *compare {
		methods = selest.Methods()
	}

	if *onlineMode {
		if *evaluate != "" || *compare {
			fail(fmt.Errorf("-online answers ad-hoc queries with one method; drop -evaluate/-compare"))
		}
		if err := runOnline(os.Stdout, values, queries, opts, *samples, *refitEvery, *seed); err != nil {
			fail(err)
		}
		return
	}

	if *evaluate != "" {
		if err := evaluateWorkload(*evaluate, smp, opts, methods, len(values), robustMode); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("data: %d records, domain [%g, %g], sample %d\n\n", len(values), lo, hi, n)
	for _, q := range queries {
		exact := exactCount(values, q.a, q.b)
		fmt.Printf("Q(%g, %g): exact %d records (selectivity %.6f)\n", q.a, q.b, exact, float64(exact)/float64(len(values)))
		for _, m := range methods {
			o := opts
			o.Method = m
			est, err := buildEstimator(smp, o, robustMode)
			if err != nil {
				fmt.Printf("  %-12s error: %v\n", m, err)
				continue
			}
			sel := est.Selectivity(q.a, q.b)
			fmt.Printf("  %-12s σ̂ = %.6f  ≈ %.0f records\n", m, sel, sel*float64(len(values)))
		}
		fmt.Println()
	}
}

// runOnline streams the data through the serving engine — reservoir
// ingest, refits on the -refit-every cadence, one final Flush
// at end of stream — then answers the queries from the last published
// snapshot. SelectivityOK distinguishes "no fit published" from a
// genuine zero-selectivity answer.
func runOnline(w io.Writer, values []float64, queries []rangeQuery, opts selest.Options, reservoir, refitEvery int, seed uint64) error {
	est, err := selest.NewOnline(opts, selest.OnlineConfig{
		ReservoirSize: reservoir,
		RefitEvery:    refitEvery,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	if err := est.InsertBatch(values); err != nil {
		fmt.Fprintf(os.Stderr, "selest: warning: online refit during ingest: %v\n", err)
	}
	if err := est.Flush(); err != nil {
		return fmt.Errorf("online flush: %w", err)
	}
	fmt.Fprintf(w, "online: %d records streamed, %d refits (%d failed), generation %d\n\n",
		est.Inserts(), est.Refits(), est.FailedRefits(), est.Generation())
	for _, q := range queries {
		exact := exactCount(values, q.a, q.b)
		fmt.Fprintf(w, "Q(%g, %g): exact %d records (selectivity %.6f)\n", q.a, q.b, exact, float64(exact)/float64(len(values)))
		sel, ok := est.SelectivityOK(q.a, q.b)
		if !ok {
			fmt.Fprintf(w, "  %-12s no fit published\n", est.Name())
			continue
		}
		fmt.Fprintf(w, "  %-12s σ̂ = %.6f  ≈ %.0f records\n", est.Name(), sel, sel*float64(len(values)))
	}
	return nil
}

// buildEstimator builds one method's estimator, strictly or through the
// robust ladder. In robust mode a degraded or sanitized build prints its
// report to stderr so the served answer's provenance is visible.
func buildEstimator(smp []float64, o selest.Options, robustMode bool) (selest.Estimator, error) {
	if !robustMode {
		return selest.Build(smp, o)
	}
	est, rep, err := selest.BuildRobust(smp, o)
	if err != nil {
		return nil, err
	}
	if rep.Degraded || rep.Sanitize.Dropped > 0 || rep.Sanitize.Clamped > 0 {
		fmt.Fprintf(os.Stderr, "selest: warning: robust build: %s\n", rep)
	}
	return est, nil
}

type rangeQuery struct{ a, b float64 }

func parseQueries(args []string) ([]rangeQuery, error) {
	out := make([]rangeQuery, 0, len(args))
	for _, arg := range args {
		parts := strings.SplitN(arg, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("query %q: want a:b", arg)
		}
		a, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", arg, err)
		}
		b, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", arg, err)
		}
		if b < a {
			return nil, fmt.Errorf("query %q: inverted range", arg)
		}
		out = append(out, rangeQuery{a, b})
	}
	return out, nil
}

func readValues(path string) ([]float64, error) {
	return readValuesOpts(path, "", false)
}

func readValuesOpts(path, column string, header bool) ([]float64, error) {
	if strings.HasSuffix(path, ".csv") {
		f, err := dataset.LoadCSVFile(path, column, header)
		if err != nil {
			return nil, err
		}
		return f.Records, nil
	}
	if strings.HasSuffix(path, ".seld") {
		f, err := dataset.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return f.Records, nil
	}
	var in *os.File
	if path == "-" {
		in = os.Stdin
	} else {
		var err error
		in, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		defer in.Close()
	}
	var values []float64
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		values = append(values, v)
	}
	return values, sc.Err()
}

func exactCount(values []float64, a, b float64) int {
	n := 0
	for _, v := range values {
		if v >= a && v <= b {
			n++
		}
	}
	return n
}

func methodList() string {
	ms := selest.Methods()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, " | ")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "selest: %v\n", err)
	os.Exit(1)
}

// evaluateWorkload loads a .selq workload and prints each method's MRE
// and q-error summary against its stored ground truth.
func evaluateWorkload(path string, smp []float64, opts selest.Options, methods []selest.Method, records int, robustMode bool) error {
	w, err := query.LoadFile(path)
	if err != nil {
		return err
	}
	if w.N != records {
		fmt.Printf("warning: workload was generated for %d records, data has %d\n", w.N, records)
	}
	fmt.Printf("workload: %d queries of %.0f%% of the domain\n\n", len(w.Queries), w.SizeFrac*100)
	fmt.Printf("%-16s %10s %12s %12s %12s\n", "method", "MRE", "q-err p50", "q-err p99", "q-err max")
	for _, m := range methods {
		o := opts
		o.Method = m
		est, err := buildEstimator(smp, o, robustMode)
		if err != nil {
			fmt.Printf("%-16s error: %v\n", m, err)
			continue
		}
		mre, _ := errmetrics.MRE(est, w)
		qe := errmetrics.QErrors(est, w)
		fmt.Printf("%-16s %9.2f%% %12.2f %12.2f %12.2f\n", m, 100*mre, qe.Median, qe.P99, qe.Max)
	}
	return nil
}
