package selest_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"selest"
)

// The redesigned error surface: callers branch on typed sentinels with
// errors.Is, through both build paths.

func TestBuildSentinelErrors(t *testing.T) {
	opts := selest.Options{DomainLo: 0, DomainHi: 1000}

	if _, err := selest.Build(nil, opts); !errors.Is(err, selest.ErrEmptySample) {
		t.Fatalf("Build(nil sample) = %v, want ErrEmptySample", err)
	}
	if _, err := selest.Build([]float64{1, 2}, selest.Options{DomainLo: 9, DomainHi: 3}); !errors.Is(err, selest.ErrInvalidDomain) {
		t.Fatalf("Build(inverted domain) = %v, want ErrInvalidDomain", err)
	}
	bad := opts
	bad.Bins = -4
	if _, err := selest.Build([]float64{1, 2}, bad); !errors.Is(err, selest.ErrBadOption) {
		t.Fatalf("Build(negative bins) = %v, want ErrBadOption", err)
	}
}

func TestBuildRobustSentinelErrors(t *testing.T) {
	if _, _, err := selest.BuildRobust([]float64{1, 2, 3}, selest.Options{DomainLo: 9, DomainHi: 3}); !errors.Is(err, selest.ErrInvalidDomain) {
		t.Fatalf("BuildRobust(inverted domain) = %v, want ErrInvalidDomain", err)
	}
	if _, _, err := selest.BuildRobust([]float64{1, 2, 3}, selest.Options{DomainLo: math.NaN(), DomainHi: 1}); !errors.Is(err, selest.ErrInvalidDomain) {
		t.Fatalf("BuildRobust(NaN domain) = %v, want ErrInvalidDomain", err)
	}
	if _, _, err := selest.BuildRobust([]float64{math.NaN(), math.Inf(1)}, selest.Options{}); !errors.Is(err, selest.ErrEmptySample) {
		t.Fatalf("BuildRobust(no finite samples) = %v, want ErrEmptySample", err)
	}
	if _, _, err := selest.BuildRobust(nil, selest.Options{}); !errors.Is(err, selest.ErrEmptySample) {
		t.Fatalf("BuildRobust(nil sample) = %v, want ErrEmptySample", err)
	}
}

// TestBuildRejectsNonFiniteSamples pins Build's door: a sample holding
// NaN, +Inf or −Inf is an error wrapping ErrBadOption for every method,
// never a panic or a fit, and BuildRobust, which drops such samples,
// still fits.
func TestBuildRejectsNonFiniteSamples(t *testing.T) {
	finite := []float64{1, 2, 3, 2.5, 1.5, 0.5, 3.5}
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {math.Inf(1), math.NaN(), math.Inf(-1)}} {
		samples := append(append(append([]float64(nil), finite[:2]...), bad...), finite[2:]...)
		for _, m := range selest.Methods() {
			opts := selest.Options{Method: m, DomainLo: 0, DomainHi: 4}
			est, err := selest.Build(samples, opts)
			if !errors.Is(err, selest.ErrBadOption) || est != nil {
				t.Fatalf("Build(%s, %v) = %v, %v; want an ErrBadOption", m, samples, est, err)
			}
			if _, _, err := selest.BuildRobust(samples, opts); err != nil {
				t.Fatalf("BuildRobust(%s, %v) = %v", m, samples, err)
			}
		}
	}
}

func TestParseMethodSurface(t *testing.T) {
	m, err := selest.ParseMethod(" Kernel ")
	if err != nil || m != selest.Kernel {
		t.Fatalf("ParseMethod(\" Kernel \") = %v, %v; want Kernel", m, err)
	}
	_, err = selest.ParseMethod("nope")
	if !errors.Is(err, selest.ErrBadOption) {
		t.Fatalf("ParseMethod(unknown) = %v, want ErrBadOption", err)
	}
	for _, m := range selest.Methods() {
		if !strings.Contains(err.Error(), string(m)) {
			t.Fatalf("ParseMethod error %q does not list %q", err, m)
		}
	}

	r, err := selest.ParseBandwidthRule("DPI")
	if err != nil || r != selest.DPI {
		t.Fatalf("ParseBandwidthRule(\"DPI\") = %v, %v; want DPI", r, err)
	}
	if _, err := selest.ParseBandwidthRule("nope"); !errors.Is(err, selest.ErrBadOption) {
		t.Fatalf("ParseBandwidthRule(unknown) = %v, want ErrBadOption", err)
	}

	bm, err := selest.ParseBoundaryMode("kernels")
	if err != nil || bm != selest.BoundaryKernels {
		t.Fatalf("ParseBoundaryMode(\"kernels\") = %v, %v; want BoundaryKernels", bm, err)
	}
	if _, err := selest.ParseBoundaryMode("mirror"); err == nil {
		t.Fatal("ParseBoundaryMode(unknown) = nil error")
	}
}

// The telemetry surface: fits and instrumented queries land in the
// registry, snapshots read them back, and the text exposition renders.
func TestMetricsSurface(t *testing.T) {
	selest.ResetMetrics()

	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i * 5)
	}
	est, err := selest.Build(samples, selest.Options{
		Method: selest.Kernel, Boundary: selest.BoundaryKernels, DomainLo: 0, DomainHi: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := selest.Metrics()
	if got := snap.Counters[`selest_fit_total{method="kernel"}`]; got != 1 {
		t.Fatalf("fit counter = %d, want 1", got)
	}

	wrapped := selest.Instrument(est)
	if again := selest.Instrument(wrapped); again != wrapped {
		t.Fatal("Instrument(Instrument(est)) re-wrapped")
	}
	for i := 0; i < 7; i++ {
		wrapped.Selectivity(100, 200)
	}
	if got := wrapped.Queries(); got != 7 {
		t.Fatalf("Queries() = %d, want 7", got)
	}
	querySeries := `selest_queries_total{estimator="` + est.Name() + `"}`
	snap = selest.Metrics()
	if got := snap.Counters[querySeries]; got != 7 {
		t.Fatalf("%s = %d, want 7", querySeries, got)
	}
	if snap.Counters["selest_kde_queries_total"] == 0 {
		t.Fatal("kde query counter did not move")
	}

	var sb strings.Builder
	if err := selest.WriteMetricsText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), querySeries+" 7") {
		t.Fatalf("exposition missing %s:\n%s", querySeries, sb.String())
	}

	// Disabled telemetry silences the hot path but leaves cold fits on.
	selest.DisableTelemetry()
	defer selest.EnableTelemetry()
	if selest.TelemetryEnabled() {
		t.Fatal("TelemetryEnabled() after Disable")
	}
	before := selest.Metrics().Counters[querySeries]
	wrapped.Selectivity(100, 200)
	if after := selest.Metrics().Counters[querySeries]; after != before {
		t.Fatalf("disabled hot path still counted: %d -> %d", before, after)
	}

	selest.ResetMetrics()
	if got := selest.Metrics().Counters[querySeries]; got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

// Robust builds feed the same registry the Report feeds the caller.
func TestRobustBuildFeedsMetrics(t *testing.T) {
	selest.ResetMetrics()
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	_, rep, err := selest.BuildRobust(samples, selest.Options{DomainLo: 0, DomainHi: 11})
	if err != nil {
		t.Fatal(err)
	}
	snap := selest.Metrics()
	if got := snap.Counters["selest_robust_builds_total"]; got != 1 {
		t.Fatalf("robust build counter = %d, want 1", got)
	}
	rungSeries := `selest_robust_rung_total{rung="` + string(rep.Rung) + `"}`
	if got := snap.Counters[rungSeries]; got != 1 {
		t.Fatalf("%s = %d, want 1", rungSeries, got)
	}
}
