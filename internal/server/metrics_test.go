package server

import (
	"bytes"
	"strings"
	"testing"

	"selest/internal/telemetry"
)

// TestServiceMetricsStructural drives the service through admission,
// ingest with shedding, every answer rung, a client retry, and a quota
// rejection, then checks the new service series through the same
// snapshot/exposition surface /metrics serves (ISSUE satellite 5). Values
// are deltas: the registry is the process-global Default shared with
// every other test in the binary.
func TestServiceMetricsStructural(t *testing.T) {
	before := telemetry.Default.Snapshot()

	_, h := newHTTPFixture(t, Options{})
	body := `{"tenant":"acme","attr":"price","lo":0,"hi":0.5}`
	do(t, h, "POST", "/v1/estimate", body, nil)                                      // snapshot or fresh rung
	do(t, h, "POST", "/v1/estimate", body, map[string]string{"X-Selest-Retry": "1"}) // retried

	// A second server with a tiny queue sheds into the same registry.
	s2 := mustServer(t, Options{QueueCap: 8})
	if err := s2.CreateAttr("flood", "x", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if res, err := s2.Ingest("flood", "x", seq(100)); err != nil || res.Shed == 0 {
		t.Fatalf("shedding ingest: %+v, %v", res, err)
	}

	// And a third with a drained tenant moves the rejected counter.
	s3 := mustServer(t, Options{QuotaRate: 1, QuotaBurst: 1})
	if err := s3.CreateAttr("broke", "x", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Admit("broke", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Admit("broke", 1); err == nil {
		t.Fatal("drained tenant admitted")
	}

	after := telemetry.Default.Snapshot()
	counterMoved := func(name string) {
		t.Helper()
		if _, ok := after.Counters[name]; !ok {
			t.Fatalf("counter %s not registered", name)
		}
		if after.Counters[name] <= before.Counters[name] {
			t.Fatalf("counter %s did not move: %d -> %d", name, before.Counters[name], after.Counters[name])
		}
	}
	counterMoved("selest_server_admitted_total")
	counterMoved("selest_server_rejected_total")
	counterMoved("selest_server_retried_total")
	counterMoved("selest_server_shed_total")

	if _, ok := after.Gauges["selest_server_queue_depth"]; !ok {
		t.Fatal("queue-depth gauge not registered")
	}
	if _, ok := after.Gauges["selest_server_drainers"]; !ok {
		t.Fatal("drainers gauge not registered")
	}
	if _, ok := after.Gauges["selest_server_inflight_requests"]; !ok {
		t.Fatal("inflight gauge not registered")
	}

	lat, ok := after.Histograms["selest_server_request_nanos"]
	if !ok {
		t.Fatal("request-latency histogram not registered")
	}
	if lat.Count <= before.Histograms["selest_server_request_nanos"].Count {
		t.Fatalf("latency histogram did not move: %d -> %d",
			before.Histograms["selest_server_request_nanos"].Count, lat.Count)
	}

	// At least one per-rung answer series moved.
	var rungAnswers int64
	for _, name := range rungNames {
		rungAnswers += after.Counters[telemetry.Label("selest_server_answers_total", "rung", name)] -
			before.Counters[telemetry.Label("selest_server_answers_total", "rung", name)]
	}
	if rungAnswers <= 0 {
		t.Fatal("no selest_server_answers_total{rung=...} series moved")
	}

	// The Prometheus exposition renders the labeled family exactly once,
	// with the service series present.
	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"selest_server_admitted_total",
		"selest_server_shed_total",
		"selest_server_queue_depth",
		"selest_server_drainers",
		"selest_server_request_nanos",
		`selest_server_answers_total{rung="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
}
