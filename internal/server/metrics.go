package server

import "selest/internal/telemetry"

// Service telemetry. Admission is the front door (admitted vs rejected,
// with retried counting requests that announce themselves as client
// retries via X-Selest-Retry); the ingest queues expose their shed count,
// aggregate depth and running drainers; the request path records one
// latency observation and, per answer, which rung of the degradation
// ladder produced it.
// Recovery counters distinguish a warm start from a cold one and surface
// torn snapshots explicitly — availability over silence.
var (
	srvAdmitted  = telemetry.Default.Counter("selest_server_admitted_total")
	srvRejected  = telemetry.Default.Counter("selest_server_rejected_total")
	srvRetried   = telemetry.Default.Counter("selest_server_retried_total")
	srvShed      = telemetry.Default.Counter("selest_server_shed_total")
	srvPanics    = telemetry.Default.Counter("selest_server_panics_total")
	srvDrainDrop = telemetry.Default.Counter("selest_server_drain_errors_total")

	srvQueueDepth = telemetry.Default.Gauge("selest_server_queue_depth")
	srvDrainers   = telemetry.Default.Gauge("selest_server_drainers")
	srvInflight   = telemetry.Default.Gauge("selest_server_inflight_requests")

	srvLatencyNanos = telemetry.Default.Histogram("selest_server_request_nanos")

	srvRecoveries    = telemetry.Default.Counter("selest_server_recoveries_total")
	srvTornSnapshots = telemetry.Default.Counter("selest_server_torn_snapshots_total")
	srvSnapshotSaves = telemetry.Default.Counter("selest_server_snapshot_saves_total")

	// Scale-out telemetry: snapshots shipped to joining peers, and
	// refusals from the box-wide (all-tenant) admission bucket — the
	// capacity signal an operator watches to decide when to add replicas.
	srvSnapshotFetches = telemetry.Default.Counter("selest_server_snapshot_fetches_total")
	srvGlobalRejected  = telemetry.Default.Counter("selest_server_global_rejected_total")
)

// Wire-transport telemetry, kept as its own series (rather than folded
// into the HTTP ones) so a dual-listener daemon can compare transports
// directly — the JSON-vs-wire latency gap is the whole point of the
// binary protocol.
var (
	srvWireRequests    = telemetry.Default.Counter("selest_server_wire_requests_total")
	srvWireProtoErrors = telemetry.Default.Counter("selest_server_wire_protocol_errors_total")
	srvWireReadErrors  = telemetry.Default.Counter("selest_server_wire_read_errors_total")
	srvWireWriteErrors = telemetry.Default.Counter("selest_server_wire_write_errors_total")

	// Fast-path telemetry (DESIGN.md §16): requests served inline on the
	// reader goroutine (no dispatch goroutine, no payload copy), and the
	// inline replies written while another request frame was already
	// buffered — each leaves in a later flush, a write syscall the
	// pipelined burst did not pay.
	srvWireInlineServed     = telemetry.Default.Counter("selest_server_wire_inline_served_total")
	srvWireFlushesCoalesced = telemetry.Default.Counter("selest_server_wire_flushes_coalesced_total")

	srvWireConns = telemetry.Default.Gauge("selest_server_wire_connections")

	srvWireLatencyNanos = telemetry.Default.Histogram("selest_server_wire_request_nanos")
)

// Per-rung answer counters, one labeled series per ladder rung, captured
// once so the answer path stays allocation-free.
var srvAnswersByRung = func() (cs [len(rungNames)]*telemetry.Counter) {
	for r, name := range rungNames {
		cs[r] = telemetry.Default.Counter(telemetry.Label("selest_server_answers_total", "rung", name))
	}
	return cs
}()
