package online

import (
	"errors"
	"strings"
	"testing"

	"selest/internal/sample"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// TestServingMetricsStructural drives the serving engine through refits
// and a degradation, then checks the serving-engine series — the stall
// histogram, the swap and coalesced counters, the builder-rung gauge,
// and the refit-sort path counters with the merged-values histogram —
// through the same snapshot/exposition surface the /metrics endpoint
// serves. Values are compared as deltas: the registry is the
// process-global Default shared with every other test in the binary.
func TestServingMetricsStructural(t *testing.T) {
	before := telemetry.Default.Snapshot()

	builds := 0
	primary := func(samples []float64) (Fitted, error) {
		builds++
		if builds == 2 || builds == 3 { // fill fit ok, then two strikes
			return nil, errors.New("primary down")
		}
		return sample.NewPureEstimator(samples), nil
	}
	fallback := func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(primary, Config{
		ReservoirSize: 32, RefitEvery: 32, Seed: 1,
		DegradeAfter: 2, Fallbacks: []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	for i := 0; i < 300; i++ {
		e.Insert(r.Float64()) // refit failures expected
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.DegradationLevel() != 1 {
		t.Fatalf("ladder never degraded (level %d); the rung gauge has nothing to show", e.DegradationLevel())
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
	if rung := after.Gauges["selest_online_builder_rung"]; rung != 1 {
		t.Fatalf("builder rung gauge = %v, want 1 after degradation", rung)
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
		"# TYPE selest_online_builder_rung gauge",
		"selest_online_builder_rung 1",
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
