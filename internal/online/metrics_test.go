package online

import (
	"errors"
	"strings"
	"testing"

	"selest/internal/sample"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// degradedGauge names the count of estimators serving from a fallback.
const degradedGauge = "selest_online_degraded_estimators"

// TestServingMetricsStructural drives the serving engine through refits
// and a degradation, then checks the serving-engine series — the stall
// histogram, the swap and coalesced counters, the degraded-estimators
// gauge, and the refit-sort path counters with the merged-values
// histogram — through the same snapshot/exposition surface the /metrics
// endpoint serves. Values are compared as deltas: the registry is the
// process-global Default shared with every other test in the binary.
func TestServingMetricsStructural(t *testing.T) {
	before := telemetry.Default.Snapshot()

	builds := 0
	primary := func(samples []float64) (Fitted, error) {
		builds++
		if builds > 1 { // fill fit ok, then down for good
			return nil, errors.New("primary down")
		}
		return sample.NewPureEstimator(samples), nil
	}
	fallback := func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(primary, Config{
		ReservoirSize: 32, RefitEvery: 32, Seed: 1,
		Fallbacks: []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Five cadence refits: the fill fit, three strikes (the third
	// degrades onto the fallback), and one clean fallback refit.
	r := xrand.New(2)
	for i := 0; i < 5*32; i++ {
		e.Insert(r.Float64()) // refit failures expected
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.DegradationLevel() != 1 {
		t.Fatalf("ladder never degraded (level %d); the degraded gauge has nothing to show", e.DegradationLevel())
	}
	// Nothing landed since the last refit, so this one merges an empty
	// delta into the previous sorted sample.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	after := telemetry.Default.Snapshot()

	stall, ok := after.Histograms["selest_online_refit_stall_ns"]
	if !ok {
		t.Fatal("selest_online_refit_stall_ns histogram not registered")
	}
	stallBefore := before.Histograms["selest_online_refit_stall_ns"]
	if stall.Count <= stallBefore.Count {
		t.Fatalf("refit stall histogram did not move: %d -> %d", stallBefore.Count, stall.Count)
	}
	swaps := after.Counters["selest_online_snapshot_swaps_total"]
	if delta := swaps - before.Counters["selest_online_snapshot_swaps_total"]; delta != int64(e.Refits()) {
		t.Fatalf("snapshot swaps delta %d, want one per refit (%d)", delta, e.Refits())
	}
	if _, ok := after.Counters["selest_online_refit_coalesced_total"]; !ok {
		t.Fatal("selest_online_refit_coalesced_total not registered")
	}
	if delta := after.Gauges[degradedGauge] - before.Gauges[degradedGauge]; delta != 1 {
		t.Fatalf("degraded-estimators gauge moved %v, want 1 after degradation", delta)
	}
	mergeName := telemetry.Label("selest_online_refit_sorts_total", "path", "merge")
	fullName := telemetry.Label("selest_online_refit_sorts_total", "path", "full")
	merges := after.Counters[mergeName] - before.Counters[mergeName]
	fulls := after.Counters[fullName] - before.Counters[fullName]
	if merges == 0 || fulls == 0 {
		t.Fatalf("refit sorts moved merge %d, full %d; both paths must show", merges, fulls)
	}
	merged := after.Histograms["selest_online_refit_merged_values"]
	if delta := merged.Count - before.Histograms["selest_online_refit_merged_values"].Count; delta != merges {
		t.Fatalf("merged-values histogram moved %d, want one per merge (%d)", delta, merges)
	}

	// The exposition surface must render every serving series with its
	// type line, exactly as a scraper would see them.
	var sb strings.Builder
	if err := telemetry.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE selest_online_refit_stall_ns histogram",
		"selest_online_refit_stall_ns_count",
		"# TYPE selest_online_snapshot_swaps_total counter",
		"# TYPE selest_online_refit_coalesced_total counter",
		"# TYPE selest_online_degraded_estimators gauge",
		"# TYPE selest_online_refit_sorts_total counter",
		`selest_online_refit_sorts_total{path="merge"}`,
		`selest_online_refit_sorts_total{path="full"}`,
		"# TYPE selest_online_refit_merged_values histogram",
		"selest_online_refit_merged_values_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestDegradedGaugeCountsEstimators runs two estimators: A degrades and
// stays on its fallback while B degrades and climbs back. The gauge
// counts estimators off their primary builder, so it must still show A
// after B's promotion — a gauge holding the last estimator's rung would
// read 0 here and hide A.
func TestDegradedGaugeCountsEstimators(t *testing.T) {
	gauge := func() float64 { return telemetry.Default.Snapshot().Gauges[degradedGauge] }
	base := gauge()

	newEstimator := func(healthy *bool) *Estimator {
		primary := func(samples []float64) (Fitted, error) {
			if !*healthy {
				return nil, errors.New("primary down")
			}
			return sample.NewPureEstimator(samples), nil
		}
		fallback := func(samples []float64) (Fitted, error) {
			return sample.NewPureEstimator(samples), nil
		}
		e, err := New(primary, Config{
			ReservoirSize: 16, RefitEvery: -1, Seed: 1,
			Fallbacks: []Builder{fallback},
		})
		if err != nil {
			t.Fatal(err)
		}
		fillEstimator(t, e, 15) // below capacity: no auto refit on fill
		return e
	}
	// flush runs n refits; the failing ones are the point.
	flush := func(e *Estimator, n int) {
		for i := 0; i < n; i++ {
			e.Flush()
		}
	}

	aHealthy, bHealthy := false, false
	a, b := newEstimator(&aHealthy), newEstimator(&bHealthy)
	flush(a, degradeAfter)
	flush(b, degradeAfter)
	if a.DegradationLevel() != 1 || b.DegradationLevel() != 1 {
		t.Fatalf("levels A %d, B %d; both must degrade", a.DegradationLevel(), b.DegradationLevel())
	}
	if got := gauge() - base; got != 2 {
		t.Fatalf("gauge moved %v with both estimators degraded, want 2", got)
	}
	bHealthy = true
	flush(b, promoteAfter)
	if a.DegradationLevel() != 1 || b.DegradationLevel() != 0 {
		t.Fatalf("levels A %d, B %d; want A on its fallback and B promoted", a.DegradationLevel(), b.DegradationLevel())
	}
	if got := gauge() - base; got != 1 {
		t.Fatalf("gauge moved %v with A still degraded, want 1", got)
	}
	aHealthy = true
	flush(a, promoteAfter)
	if got := gauge() - base; got != 0 {
		t.Fatalf("gauge moved %v once both recovered, want 0", got)
	}
}
