package core

import (
	"time"

	"selest/internal/telemetry"
)

// Telemetry hooks for the fit path. Builds are cold relative to queries
// (milliseconds against nanoseconds), so these record unconditionally:
// the per-method registry lookup and the clock reads are noise against
// any fit. The series answer the capacity questions the ROADMAP's
// production framing raises — which methods are being fitted, how long a
// fit costs, and what smoothing parameter the rules actually derived.

// fitSortsAvoided is kde's selest_fit_sorts_avoided_total series (the
// registry hands both packages the same counter): BuildSorted counts the
// copy-and-sort its caller's sorted view spares.
var fitSortsAvoided = telemetry.Default.Counter("selest_fit_sorts_avoided_total")

// recordFit records one Build outcome for a method: a success counter
// plus a duration histogram, or a failure counter.
func recordFit(method Method, start time.Time, err error) {
	r := telemetry.Default
	if err != nil {
		r.Counter(telemetry.Label("selest_fit_failures_total", "method", string(method))).Inc()
		return
	}
	r.Counter(telemetry.Label("selest_fit_total", "method", string(method))).Inc()
	r.Histogram(telemetry.Label("selest_fit_nanos", "method", string(method))).ObserveSince(start)
}

// recordBins records the bin count a histogram method resolved to —
// fixed by the caller or derived from the bin-width rule.
func recordBins(method Method, bins int) {
	telemetry.Default.Gauge(telemetry.Label("selest_fit_bins", "method", string(method))).Set(float64(bins))
}

// recordBandwidth records the kernel bandwidth a method resolved to.
func recordBandwidth(method Method, h float64) {
	telemetry.Default.Gauge(telemetry.Label("selest_fit_bandwidth", "method", string(method))).Set(h)
}
