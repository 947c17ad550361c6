package online

import (
	"sync"

	"selest/internal/telemetry"
)

// Stream-maintenance telemetry. The insert path is the online
// estimator's hot loop, so its counters sit behind the Enabled gate like
// the kde query hooks; refit events are cold and record unconditionally.
// Together the series expose the refit economy the workload-aware
// literature presupposes: how often fits refresh, how often they fail
// and back off, how far down the fallback ladder serving has degraded,
// and how hard the reservoir is churning.
var (
	onlineInserts      = telemetry.Default.Counter("selest_online_inserts_total")
	onlineEvictions    = telemetry.Default.Counter("selest_online_reservoir_evictions_total")
	onlineRefits       = telemetry.Default.Counter("selest_online_refits_total")
	onlineRefitFails   = telemetry.Default.Counter("selest_online_refit_failures_total")
	onlineBackoffs     = telemetry.Default.Counter("selest_online_backoffs_total")
	onlineDegradations = telemetry.Default.Counter("selest_online_degradations_total")
	onlineRefitNanos   = telemetry.Default.Histogram("selest_online_refit_nanos")
)

// Serving-engine telemetry. A refit "stall" is the time the refit spends
// reading the reservoir (its replacement log, or a full copy) — the only
// interval where a refit holds any lock an inserter can contend on;
// queries never stall at all, which is the point. Swaps count published snapshots, coalesced counts insert-path
// triggers absorbed by an in-flight build, and the degraded gauge counts
// the process's estimators that build from a fallback rung: +1 when an
// estimator leaves its primary builder, −1 when it climbs back. selestd
// runs one estimator per attribute and never drops one, so the gauge
// reads how many attributes serve degraded fits.
var (
	onlineRefitStallNanos    = telemetry.Default.Histogram("selest_online_refit_stall_ns")
	onlineSnapshotSwaps      = telemetry.Default.Counter("selest_online_snapshot_swaps_total")
	onlineRefitCoalesced     = telemetry.Default.Counter("selest_online_refit_coalesced_total")
	onlineDegradedEstimators = telemetry.Default.Gauge("selest_online_degraded_estimators")
	// Promotions count rung recoveries (promoteAfter climbs); abandoned
	// flushes count FlushContext calls that hit their deadline while a
	// build was still running — the shutdown path's "gave up waiting"
	// signal.
	onlinePromotions     = telemetry.Default.Counter("selest_online_promotions_total")
	onlineFlushAbandoned = telemetry.Default.Counter("selest_online_flush_abandoned_total")
)

// Refit-sort telemetry: how each refit got its sorted sample. The merge
// path folds the records the reservoir replaced since the last refit
// into the previous sorted sample; the full path copies and sorts the
// whole reservoir (the first refit, a Restore, or more churn than merging
// pays for). The histogram counts the admitted and evicted values each
// merge folded in.
var (
	onlineRefitSortsMerge   = telemetry.Default.Counter(telemetry.Label("selest_online_refit_sorts_total", "path", "merge"))
	onlineRefitSortsFull    = telemetry.Default.Counter(telemetry.Label("selest_online_refit_sorts_total", "path", "full"))
	onlineRefitMergedValues = telemetry.Default.Histogram("selest_online_refit_merged_values")
)

// degraded is the count behind selest_online_degraded_estimators. The
// lock orders each change with its publication, so concurrent demotions
// and promotions never leave a stale count on the gauge, and the next
// change after a Registry.Reset republishes the true count.
var (
	degradedMu sync.Mutex
	degraded   int
)

// addDegraded moves the degraded-estimator count by delta and publishes it.
func addDegraded(delta int) {
	degradedMu.Lock()
	defer degradedMu.Unlock()
	degraded += delta
	onlineDegradedEstimators.Set(float64(degraded))
}
