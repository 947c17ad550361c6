package main

// The traced run's per-layer replay. Each layer is driven through its own
// public functions with the workload's recorded inputs, one layer down at
// a time, and every call is a span recorded here, in the benchmark's own
// code. Spans of one input share its id; a layer's self time is its span
// minus the span of the layer below on the same input.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"selest/client"
	"selest/internal/bandwidth"
	"selest/internal/core"
	"selest/internal/fsort"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/online"
	"selest/internal/server"
	"selest/internal/wire"
)

// span is one timed call at a layer boundary.
type span struct {
	name       string
	id, parent int64
	start, end time.Time
}

// tracer keeps spans in memory; the replay is single-threaded.
type tracer struct{ spans []span }

// timed runs f as one span and returns its duration in ns.
func (t *tracer) timed(name string, id, parent int64, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	return float64(end.Sub(start))
}

// span runs f as one span and keeps its duration with the others of
// that name.
func (rp *replay) span(name string, id, parent int64, f func()) {
	rp.s.add(name, rp.tr.timed(name, id, parent, f))
}

// samples collects per-input durations by span name.
type samples map[string][]float64

func (s samples) add(name string, ns float64) { s[name] = append(s[name], ns) }

// p returns the q-quantile of a span's durations under the percentile
// rule.
func (s samples) p(name string, q float64) (float64, error) {
	xs := append([]float64(nil), s[name]...)
	sort.Float64s(xs)
	v, err := percentileF(xs, q)
	if err != nil {
		return 0, fmt.Errorf("span %s: %w", name, err)
	}
	return v, nil
}

// replay holds what the layer replays measured.
type replay struct {
	tr tracer
	s  samples
}

// maxReplay bounds the recorded requests a replay drives: the phase's
// first maxReplay requests of each kind.
const maxReplay = 2000

func recorded(p *phase, op uint8) []int {
	var out []int
	for i := range p.reqs {
		if p.reqs[i].op == op && len(out) < maxReplay {
			out = append(out, i)
		}
	}
	return out
}

// replayClient times recorded single estimates through the client
// against the live daemon and through an in-process server.Server on the
// same inputs; their difference is the transport's self time.
func replayClient(c *client.Client, ref *server.Server, w *workload, p *phase) (*replay, error) {
	rp := &replay{s: samples{}}
	ctx := context.Background()
	inputs := recorded(p, opRead)
	// One layer at a time, so each pass meets the same cache state.
	for _, layer := range []string{"client.estimate", "server.estimate"} {
		runtime.GC()
		for _, i := range inputs {
			r := &p.reqs[i]
			a := &w.attrs[r.attr]
			q := a.pool[r.arg]
			var err error
			if layer == "client.estimate" {
				rp.span(layer, int64(i), -1, func() {
					_, err = c.Estimate(ctx, a.tenant, a.name, q.Lo, q.Hi)
				})
			} else {
				rp.span(layer, int64(i), int64(i), func() {
					_, err = ref.Estimate(ctx, a.tenant, a.name, q.Lo, q.Hi, false)
				})
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", layer, err)
			}
		}
	}
	return rp, nil
}

// replayServer drives the in-process server's batch, ingest and
// admission entry points with recorded inputs. Ingest replays mutate the
// reference, so this runs after the parity check.
func (rp *replay) replayServer(ref *server.Server, w *workload, p *phase, ingests []ingestInput) error {
	ctx := context.Background()
	for _, i := range recorded(p, opBatch) {
		r := &p.reqs[i]
		a := &w.attrs[r.attr]
		qs := make([]server.RangeQuery, batchSize)
		for j, q := range a.pool[r.arg : r.arg+batchSize] {
			qs[j] = server.RangeQuery{Lo: q.Lo, Hi: q.Hi}
		}
		var err error
		rp.span("server.batch", int64(i), int64(i), func() {
			_, err = ref.EstimateBatch(ctx, a.tenant, a.name, qs, false)
		})
		if err != nil {
			return fmt.Errorf("replay batch: %w", err)
		}
	}
	for i := range p.reqs[:min(len(p.reqs), 4*maxReplay)] {
		a := &w.attrs[p.reqs[i].attr]
		var err error
		rp.span("server.admit", int64(i), int64(i), func() {
			_, err = ref.Admit(a.tenant, 1)
		})
		if err != nil {
			return fmt.Errorf("replay admit: %w", err)
		}
	}
	for j, in := range ingests {
		a := &w.attrs[in.attr]
		var err error
		rp.span("server.ingest", int64(j), -1, func() {
			_, err = ref.Ingest(a.tenant, a.name, in.values)
		})
		if err != nil {
			return fmt.Errorf("replay ingest: %w", err)
		}
	}
	return nil
}

// ingestInput is one recorded ingest payload.
type ingestInput struct {
	attr   int
	values []float64
}

// recordedIngests returns the phase's recorded ingests, or for a workload
// without window ingests the set-up's seed chunks.
func recordedIngests(w *workload, p *phase) []ingestInput {
	var out []ingestInput
	for _, i := range recorded(p, opIngest) {
		r := &p.reqs[i]
		out = append(out, ingestInput{attr: int(r.attr), values: w.attrs[r.attr].streamValues(int(r.arg), w.ingestSize)})
	}
	if len(out) > 0 {
		return out
	}
	for ai := range w.attrs {
		a := &w.attrs[ai]
		for off := 0; off < a.seedN; off += seedChunk {
			if len(out) == maxReplay/4 {
				return out
			}
			out = append(out, ingestInput{attr: ai, values: a.streamValues(off, min(seedChunk, a.seedN-off))})
		}
	}
	return out
}

// replayWire encodes and decodes the recorded requests' real frames and
// their answers' frames: the request and response codec work of one
// round trip, without the network.
func (rp *replay) replayWire(w *workload, p *phase) error {
	var (
		frame, payload, rbuf []byte
		queries              []wire.Range
		rd                   bytes.Reader
	)
	meta := wire.Meta{TimeoutMs: 5000}
	results := make([]wire.EstimateRes, batchSize)
	trip := func(op wire.Op, id uint64) (wire.Frame, error) {
		frame = wire.AppendFrame(frame[:0], wire.Frame{Op: op, ID: id, Payload: payload})
		rd.Reset(frame)
		var f wire.Frame
		var err error
		f, rbuf, err = wire.ReadFrame(&rd, wire.MaxPayload, rbuf)
		return f, err
	}
	n := min(len(p.reqs), 2*maxReplay)
	runtime.GC()
	for i := 0; i < n; i++ {
		r := &p.reqs[i]
		a := &w.attrs[r.attr]
		var err error
		kind := "wire.codec." + opNames[r.op]
		if r.op == opFresh {
			kind = "wire.codec." + opNames[opRead] // the same frames
		}
		rp.span(kind, int64(i), int64(i), func() {
			var f wire.Frame
			switch r.op {
			case opRead, opFresh:
				q := a.pool[r.arg]
				payload = wire.EstimateReq{Meta: meta, Tenant: a.tenant, Attr: a.name, Lo: q.Lo, Hi: q.Hi, Fresh: r.op == opFresh}.Append(payload[:0])
				if f, err = trip(wire.OpEstimate, uint64(i)); err != nil {
					return
				}
				if _, err = wire.DecodeEstimateReqView(f.Payload); err != nil {
					return
				}
				payload = wire.EstimateRes{Selectivity: 0.25, Rows: 1000, Generation: 2, Rung: "snapshot"}.Append(payload[:0])
				if f, err = trip(wire.OpEstimate|wire.RespFlag, uint64(i)); err != nil {
					return
				}
				_, err = wire.DecodeEstimateRes(f.Payload)
			case opBatch:
				qs := make([]wire.Range, batchSize)
				for j, q := range a.pool[r.arg : r.arg+batchSize] {
					qs[j] = wire.Range{Lo: q.Lo, Hi: q.Hi}
				}
				payload = wire.EstimateBatchReq{Meta: meta, Tenant: a.tenant, Attr: a.name, Queries: qs}.Append(payload[:0])
				if f, err = trip(wire.OpEstimateBatch, uint64(i)); err != nil {
					return
				}
				if _, queries, err = wire.DecodeEstimateBatchReqView(f.Payload, 4096, queries); err != nil {
					return
				}
				for j := range results {
					results[j] = wire.EstimateRes{Selectivity: 0.25, Rows: 1000, Generation: 2, Rung: "snapshot"}
				}
				payload = wire.EstimateBatchRes{Results: results}.Append(payload[:0])
				if f, err = trip(wire.OpEstimateBatch|wire.RespFlag, uint64(i)); err != nil {
					return
				}
				_, err = wire.DecodeEstimateBatchRes(f.Payload)
			case opIngest:
				payload = wire.IngestReq{Meta: meta, Tenant: a.tenant, Attr: a.name, Values: a.streamValues(int(r.arg), w.ingestSize)}.Append(payload[:0])
				if f, err = trip(wire.OpIngest, uint64(i)); err != nil {
					return
				}
				if _, err = wire.DecodeIngestReq(f.Payload, 4096); err != nil {
					return
				}
				payload = wire.IngestRes{Queued: uint32(w.ingestSize)}.Append(payload[:0])
				if f, err = trip(wire.OpIngest|wire.RespFlag, uint64(i)); err != nil {
					return
				}
				_, err = wire.DecodeIngestRes(f.Payload)
			}
		})
		if err != nil {
			return fmt.Errorf("replay wire: %w", err)
		}
	}
	return nil
}

// replayOnline rebuilds each attribute's online estimator from its set-up
// values, with the daemon's fit function, and drives it and the fit it
// publishes with the recorded inputs.
func (rp *replay) replayOnline(w *workload, p *phase, ingests []ingestInput) error {
	ests := make([]*online.Estimator, len(w.attrs))
	fits := make([]online.Fitted, len(w.attrs))
	get := func(ai int) (*online.Estimator, error) {
		if ests[ai] != nil {
			return ests[ai], nil
		}
		a := &w.attrs[ai]
		cfg, err := serverConfig(a.cfg)
		if err != nil {
			return nil, err
		}
		opts := coreOptions(cfg)
		est, err := online.New(func(s []float64) (online.Fitted, error) {
			f, err := core.Build(s, opts)
			if err == nil {
				fits[ai] = f
			}
			return f, err
		}, online.Config{ReservoirSize: cfg.ReservoirSize, RefitEvery: cfg.RefitEvery, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		for off := 0; off < a.seedN; off += seedChunk {
			if err := est.InsertBatch(a.streamValues(off, min(seedChunk, a.seedN-off))); err != nil {
				return nil, err
			}
		}
		if err := est.Flush(); err != nil {
			return nil, err
		}
		ests[ai] = est
		return est, nil
	}
	reads := recorded(p, opRead)
	for _, i := range reads {
		if _, err := get(int(p.reqs[i].attr)); err != nil {
			return fmt.Errorf("replay online: %w", err)
		}
	}
	var sink float64
	runtime.GC()
	for _, i := range reads {
		r := &p.reqs[i]
		q, est := w.attrs[r.attr].pool[r.arg], ests[r.attr]
		rp.span("online.query", int64(i), int64(i), func() { sink += est.Selectivity(q.Lo, q.Hi) })
	}
	runtime.GC()
	for _, i := range reads {
		r := &p.reqs[i]
		q, fit := w.attrs[r.attr].pool[r.arg], fits[r.attr]
		rp.span("kde.query", int64(i), int64(i), func() { sink += fit.Selectivity(q.Lo, q.Hi) })
	}
	runtime.GC()
	for j, in := range ingests {
		est, err := get(in.attr)
		if err != nil {
			return fmt.Errorf("replay online: %w", err)
		}
		rp.span("online.insert_batch", int64(j), int64(j), func() { err = est.InsertBatch(in.values) })
		if err != nil {
			return fmt.Errorf("replay insert: %w", err)
		}
	}
	// Refits and their reservoir-copy stall, over the attributes the
	// replay touched, until enough samples or time.
	deadline := time.Now().Add(3 * time.Second)
	for n := 0; n < 2*minBeyond || (n < 64 && time.Now().Before(deadline)); n = len(rp.s["online.refit"]) {
		for ai, est := range ests {
			if est == nil {
				continue
			}
			var err error
			rp.span("online.refit", int64(ai), -1, func() { err = est.Flush() })
			if err != nil {
				return fmt.Errorf("replay refit: %w", err)
			}
			rp.span("online.refit_stall", int64(ai), int64(ai), func() { _ = est.ReservoirValues() })
		}
	}
	if math.IsNaN(sink) {
		return fmt.Errorf("replay online: NaN answer")
	}
	// The fit-path layers below a refit, on the first attribute's
	// reservoir.
	est, err := get(0)
	if err != nil {
		return err
	}
	return rp.replayFit(w, est.ReservoirValues())
}

func coreOptions(cfg server.AttrConfig) core.Options {
	return core.Options{
		Method: cfg.Method, DomainLo: cfg.DomainLo, DomainHi: cfg.DomainHi,
		Bins: cfg.Bins, Bandwidth: cfg.Bandwidth, Rule: cfg.Rule, Boundary: cfg.Boundary,
	}
}

// fitMethods are the service-buildable estimators the fit replay builds.
var fitMethods = []struct {
	name string
	opts core.Options
}{
	{"kernel-dpi", core.Options{Method: core.Kernel, Rule: core.DPI, Boundary: kde.BoundaryKernels}},
	{"kernel-normal-scale", core.Options{Method: core.Kernel, Rule: core.NormalScale, Boundary: kde.BoundaryKernels}},
	{"beta-kernel", core.Options{Method: core.BetaKernel, Rule: core.BetaClosedForm}},
	{"equi-depth", core.Options{Method: core.EquiDepth}},
}

// replayFit times the refit's layers on one reservoir: sort, index,
// bandwidth selection per rule, and a whole build per method with the
// bytes it allocates.
func (rp *replay) replayFit(w *workload, smp []float64) error {
	lo, hi := w.attrs[0].cfg.DomainLo, w.attrs[0].cfg.DomainHi
	k := kernel.Epanechnikov{}
	deadline := time.Now().Add(4 * time.Second)
	var ms runtime.MemStats
	for it := 0; it < 200 && (it < 25 || time.Now().Before(deadline)); it++ {
		id := int64(it)
		sorted := make([]float64, len(smp))
		rp.span("fsort.sort", id, -1, func() {
			copy(sorted, smp)
			fsort.Float64s(sorted)
		})
		var ctx *kde.FitContext
		var err error
		rp.span("kde.index", id, -1, func() { ctx, err = kde.NewFitContextSorted(sorted) })
		if err != nil {
			return fmt.Errorf("replay index: %w", err)
		}
		rules := []struct {
			name string
			f    func() (float64, error)
		}{
			{"normal-scale", func() (float64, error) { return bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), k) }},
			{"dpi", func() (float64, error) { return bandwidth.DPIBandwidthContext(ctx, k, 2, lo, hi) }},
			{"beta-closed-form", func() (float64, error) { return bandwidth.BetaClosedFormContext(ctx) }},
		}
		for _, r := range rules {
			rp.span("bandwidth."+r.name, id, -1, func() { _, err = r.f() })
			if err != nil {
				return fmt.Errorf("replay bandwidth %s: %w", r.name, err)
			}
		}
		for _, m := range fitMethods {
			opts := m.opts
			opts.DomainLo, opts.DomainHi = lo, hi
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			rp.span("core.build."+m.name, id, -1, func() { _, err = core.Build(smp, opts) })
			runtime.ReadMemStats(&ms)
			rp.s.add("core.build_bytes."+m.name, float64(ms.TotalAlloc-before))
			if err != nil {
				return fmt.Errorf("replay build %s: %w", m.name, err)
			}
		}
	}
	return nil
}

// layerUnits declares the per-layer metrics and their units, as
// BENCHMARK.json lists them.
var layerUnits = map[string]string{
	"loadgen.late_p99_us":                  "us",
	"loadgen.late_share":                   "ratio",
	"loadgen.cpu_util":                     "ratio",
	"client.cpu_us_per_req":                "us",
	"client.retries":                       "count",
	"transport.self_p50_us":                "us",
	"wire.codec_ns":                        "ns",
	"wire.inline_ratio":                    "ratio",
	"wire.coalesced_flush_ratio":           "ratio",
	"wire.protocol_errors":                 "count",
	"server.estimate_ns":                   "ns",
	"server.estimate_self_ns":              "ns",
	"server.batch_ns":                      "ns",
	"server.ingest_p50_ns":                 "ns",
	"server.ingest_p99_ns":                 "ns",
	"server.admit_ns":                      "ns",
	"server.rung.fresh":                    "count",
	"server.rung.snapshot":                 "count",
	"server.rung.reservoir":                "count",
	"server.rung.uniform":                  "count",
	"server.degraded_ratio":                "ratio",
	"server.shed_ratio":                    "ratio",
	"server.gc_pause_ms":                   "ms",
	"server.gc_cycles":                     "count",
	"server.alloc_mb":                      "MB",
	"online.query_ns":                      "ns",
	"online.query_self_ns":                 "ns",
	"online.insert_batch_p50_us":           "us",
	"online.insert_batch_p99_us":           "us",
	"online.refits":                        "count",
	"online.refit_p50_ms":                  "ms",
	"online.refit_p99_ms":                  "ms",
	"online.refit_stall_p99_us":            "us",
	"online.refit_coalesced":               "count",
	"fsort.sort_ms":                        "ms",
	"kde.index_ms":                         "ms",
	"bandwidth.select_us.normal-scale":     "us",
	"bandwidth.select_us.dpi":              "us",
	"bandwidth.select_us.beta-closed-form": "us",
	"core.build_ms.kernel-dpi":             "ms",
	"core.build_ms.kernel-normal-scale":    "ms",
	"core.build_ms.beta-kernel":            "ms",
	"core.build_ms.equi-depth":             "ms",
	"core.build_mb.kernel-dpi":             "MB",
	"core.build_mb.kernel-normal-scale":    "MB",
	"core.build_mb.beta-kernel":            "MB",
	"core.build_mb.equi-depth":             "MB",
	"kde.query_ns":                         "ns",
	"latency.read_p50_us":                  "us",
	"latency.read_p99_us":                  "us",
	"latency.batch_p99_us":                 "us",
	"latency.ingest_p50_us":                "us",
	"latency.ingest_p99_us":                "us",
	"latency.fresh_p99_ms":                 "ms",
	"trace.overhead_read_p50_us":           "us",
	"trace.overhead_read_p99_us":           "us",
}

// layerMetrics fills the per-layer metrics from the untraced phase's
// counters, the traced phase, and the replays.
func layerMetrics(m *metrics, nom, traced *phase, w0, w1 window, rp *replay) {
	att, failed := nom.counts()
	ok := float64(att - failed)
	late, _ := percentile(nom.lateness(), 0.99)
	m.set("loadgen.late_p99_us", late/1e3)
	m.set("loadgen.late_share", nom.lateShare())
	m.set("loadgen.cpu_util", nom.cpu.Seconds()/nom.wall.Seconds()/float64(runtime.NumCPU()))
	m.set("client.cpu_us_per_req", nom.cpu.Seconds()*1e6/ok)
	m.set("client.retries", float64(w1.stats.Retries-w0.stats.Retries))

	pick := func(name string, q float64) float64 {
		v, err := rp.s.p(name, q)
		if err != nil {
			m.fail(err)
		}
		return v
	}
	client50, server50 := pick("client.estimate", 0.5), pick("server.estimate", 0.5)
	online50, kde50 := pick("online.query", 0.5), pick("kde.query", 0.5)
	m.set("transport.self_p50_us", (client50-server50)/1e3)
	m.set("server.estimate_ns", server50)
	m.set("server.estimate_self_ns", server50-online50)
	m.set("online.query_ns", online50)
	m.set("online.query_self_ns", online50-kde50)
	m.set("kde.query_ns", kde50)

	// The codec cost of the recorded mix: each request kind's median,
	// weighted by its share of the requests replayed.
	codec, replayed := 0.0, 0
	for _, op := range opNames {
		replayed += len(rp.s["wire.codec."+op])
	}
	for _, op := range opNames {
		if n := len(rp.s["wire.codec."+op]); n > 0 {
			codec += float64(n) / float64(replayed) * median(rp.s["wire.codec."+op])
		}
	}
	m.set("wire.codec_ns", codec)
	wireReqs := delta(w0, w1, "selest_server_wire_requests_total")
	m.set("wire.inline_ratio", delta(w0, w1, "selest_server_wire_inline_served_total")/wireReqs)
	m.set("wire.coalesced_flush_ratio", delta(w0, w1, "selest_server_wire_flushes_coalesced_total")/wireReqs)
	m.set("wire.protocol_errors", delta(w0, w1, "selest_server_wire_protocol_errors_total"))

	if len(rp.s["server.batch"]) > 0 {
		m.set("server.batch_ns", pick("server.batch", 0.5))
	} else {
		m.fail(fmt.Errorf("no batches recorded"))
	}
	m.set("server.ingest_p50_ns", pick("server.ingest", 0.5))
	m.set("server.ingest_p99_ns", pick("server.ingest", 0.99))
	m.set("server.admit_ns", pick("server.admit", 0.5))
	for _, r := range []string{"fresh", "snapshot", "reservoir", "uniform"} {
		m.set("server.rung."+r, delta(w0, w1, `selest_server_answers_total{rung="`+r+`"}`))
	}
	m.set("server.degraded_ratio", float64(nom.degraded.Load())/float64(max(nom.estimates.Load(), 1)))
	m.set("server.shed_ratio", delta(w0, w1, "selest_server_shed_total")/math.Max(float64(nom.ingested.Load()), 1))
	cycles, pause, alloc := gcBetween(w0.mem, w1.mem)
	m.set("server.gc_pause_ms", pause.Seconds()*1e3)
	m.set("server.gc_cycles", float64(cycles))
	m.set("server.alloc_mb", float64(alloc)/(1<<20))

	m.set("online.insert_batch_p50_us", pick("online.insert_batch", 0.5)/1e3)
	m.set("online.insert_batch_p99_us", pick("online.insert_batch", 0.99)/1e3)
	m.set("online.refits", delta(w0, w1, "selest_online_refits_total"))
	m.set("online.refit_p50_ms", pick("online.refit", 0.5)/1e6)
	m.set("online.refit_p99_ms", pick("online.refit", 0.99)/1e6)
	m.set("online.refit_stall_p99_us", pick("online.refit_stall", 0.99)/1e3)
	m.set("online.refit_coalesced", delta(w0, w1, "selest_online_refit_coalesced_total"))

	m.set("fsort.sort_ms", pick("fsort.sort", 0.5)/1e6)
	m.set("kde.index_ms", pick("kde.index", 0.5)/1e6)
	for _, r := range []string{"normal-scale", "dpi", "beta-closed-form"} {
		m.set("bandwidth.select_us."+r, pick("bandwidth."+r, 0.5)/1e3)
	}
	for _, f := range fitMethods {
		m.set("core.build_ms."+f.name, pick("core.build."+f.name, 0.5)/1e6)
		m.set("core.build_mb."+f.name, pick("core.build_bytes."+f.name, 0.5)/(1<<20))
	}

	r0, r1 := nom.latencies(opRead), traced.latencies(opRead)
	for _, q := range []struct {
		name string
		q    float64
	}{{"trace.overhead_read_p50_us", 0.5}, {"trace.overhead_read_p99_us", 0.99}} {
		a, err0 := percentile(r0, q.q)
		b, err1 := percentile(r1, q.q)
		if err0 != nil || err1 != nil {
			m.fail(fmt.Errorf("%s: too few reads", q.name))
			continue
		}
		m.set(q.name, (b-a)/1e3)
	}
}
