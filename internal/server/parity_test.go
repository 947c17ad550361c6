// Transport parity: HTTP and selestwire are two envelopes around one
// request core, so the same request must get the same answer, the same
// error (code, message, retry hint) and the same admission accounting on
// either — and on the wire, whether the reader goroutine serves it
// inline or hands it to a request goroutine. Run under -race by
// `make race-wire` (the TestWire name prefix).
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"selest/internal/errcode"
	"selest/internal/telemetry"
	"selest/internal/wire"
)

// parityOp is one request, expressible on both transports.
type parityOp struct {
	op           wire.Op
	tenant, attr string
	lo, hi       float64
	fresh        bool
	queries      []wire.Range
	values       []float64
	cfg          string // create_attr: the config's JSON
}

// parityOutcome is what a transport answered, normalised across
// envelopes, plus what the request did to the admission counters.
type parityOutcome struct {
	code, msg          string // code "" on success
	retry              bool   // an over-quota retry hint came back
	results            []EstimateResult
	ingest             IngestResult
	admitted, rejected int64
}

// hasNaN reports a request JSON cannot carry: over HTTP it is a syntax
// error, so only its code — not its message — can match the wire's.
func (o parityOp) hasNaN() bool {
	nan := math.IsNaN(o.lo) || math.IsNaN(o.hi)
	for _, q := range o.queries {
		nan = nan || math.IsNaN(q.Lo) || math.IsNaN(q.Hi)
	}
	for _, v := range o.values {
		nan = nan || math.IsNaN(v)
	}
	return nan
}

func jsonNum(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// http returns the op's endpoint and JSON body.
func (o parityOp) http() (path, body string) {
	names := fmt.Sprintf(`"tenant":%q,"attr":%q`, o.tenant, o.attr)
	switch o.op {
	case wire.OpEstimate:
		return "/v1/estimate", fmt.Sprintf(`{%s,"lo":%s,"hi":%s,"fresh":%t}`, names, jsonNum(o.lo), jsonNum(o.hi), o.fresh)
	case wire.OpEstimateBatch:
		qs := make([]string, len(o.queries))
		for i, q := range o.queries {
			qs[i] = fmt.Sprintf(`{"lo":%s,"hi":%s}`, jsonNum(q.Lo), jsonNum(q.Hi))
		}
		return "/v1/estimate/batch", fmt.Sprintf(`{%s,"fresh":%t,"queries":[%s]}`, names, o.fresh, strings.Join(qs, ","))
	case wire.OpIngest:
		vs := make([]string, len(o.values))
		for i, v := range o.values {
			vs[i] = jsonNum(v)
		}
		return "/v1/ingest", fmt.Sprintf(`{%s,"values":[%s]}`, names, strings.Join(vs, ","))
	case wire.OpCreateAttr:
		return "/v1/attrs", fmt.Sprintf(`{%s,"config":%s}`, names, o.cfg)
	}
	panic("no HTTP form for " + o.op.String())
}

// payload returns the op's selestwire request payload.
func (o parityOp) payload() []byte {
	switch o.op {
	case wire.OpEstimate:
		return wire.EstimateReq{Tenant: o.tenant, Attr: o.attr, Lo: o.lo, Hi: o.hi, Fresh: o.fresh}.Append(nil)
	case wire.OpEstimateBatch:
		return wire.EstimateBatchReq{Tenant: o.tenant, Attr: o.attr, Fresh: o.fresh, Queries: o.queries}.Append(nil)
	case wire.OpIngest:
		return wire.IngestReq{Tenant: o.tenant, Attr: o.attr, Values: o.values}.Append(nil)
	case wire.OpCreateAttr:
		return wire.CreateAttrReq{Tenant: o.tenant, Attr: o.attr, Config: []byte(o.cfg)}.Append(nil)
	}
	return wire.PingReq{}.Append(nil)
}

// parityPair is two identically configured servers: one answering over
// an in-process HTTP handler, one over a raw selestwire connection.
type parityPair struct {
	t      *testing.T
	hs, ws *Server
	h      http.Handler
	conn   net.Conn
	br     *bufio.Reader
	rbuf   []byte
	id     uint64
	rows   map[string]int // values queued per tenant/attr, both servers
}

func admissionCounts() (admitted, rejected int64) {
	c := telemetry.Default.Snapshot().Counters
	return c["selest_server_admitted_total"], c["selest_server_rejected_total"]
}

// parityAttrCfg never refits on its own — no fill (the reservoir outgrows
// the test), no cadence — so only fresh reads refit, inside a
// request, and both servers always hold the same fit.
func parityAttrCfg(seed int) string {
	return fmt.Sprintf(`{"domain_lo":0,"domain_hi":1,"reservoir_size":4096,"refit_every":-1,"seed":%d}`, seed)
}

func newParityPair(t *testing.T, opts Options) *parityPair {
	p := &parityPair{t: t, rows: map[string]int{}}
	for _, s := range []**Server{&p.hs, &p.ws} {
		var err error
		if *s, err = NewServer(opts); err != nil {
			t.Fatal(err)
		}
		var cfg AttrConfig
		if err := json.Unmarshal([]byte(parityAttrCfg(7)), &cfg); err != nil {
			t.Fatal(err)
		}
		for _, tn := range []string{"acme", "beta"} {
			for _, an := range []string{"price", "weight"} {
				if err := (*s).CreateAttr(tn, an, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Set-up data goes through the in-process API, which charges no
		// quota: acme/price answers from the reservoir until a fresh read
		// fits it, the other attributes from the uniform rung.
		if _, err := (*s).Ingest("acme", "price", seq(48)); err != nil {
			t.Fatal(err)
		}
		waitInserted(t, *s, "acme", "price", 48)
	}
	p.rows["acme/price"] = 48
	p.h = p.hs.Handler()
	_, addr := startWireServer(t, p.ws)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(2 * time.Minute))
	p.conn, p.br = conn, bufio.NewReader(conn)
	return p
}

// viaHTTP sends o through the HTTP handler.
func (p *parityPair) viaHTTP(o parityOp) parityOutcome {
	var out parityOutcome
	a0, r0 := admissionCounts()
	var w *httptest.ResponseRecorder
	if o.op == wire.OpPing {
		w = do(p.t, p.h, "GET", "/healthz", "", nil)
	} else {
		path, body := o.http()
		w = do(p.t, p.h, "POST", path, body, nil)
	}
	a1, r1 := admissionCounts()
	out.admitted, out.rejected = a1-a0, r1-r0
	if w.Code != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			p.t.Fatalf("untyped HTTP error %d: %s", w.Code, w.Body.String())
		}
		out.code, out.msg = eb.Error.Code, eb.Error.Message
		out.retry = w.Header().Get("Retry-After") != ""
		return out
	}
	var err error
	switch o.op {
	case wire.OpEstimate:
		var res EstimateResult
		err = json.Unmarshal(w.Body.Bytes(), &res)
		out.results = []EstimateResult{res}
	case wire.OpEstimateBatch:
		var batch struct {
			Results []EstimateResult `json:"results"`
		}
		err = json.Unmarshal(w.Body.Bytes(), &batch)
		out.results = batch.Results
	case wire.OpIngest:
		err = json.Unmarshal(w.Body.Bytes(), &out.ingest)
	}
	if err != nil {
		p.t.Fatalf("HTTP %s answer %s: %v", o.op, w.Body.String(), err)
	}
	return out
}

// viaWire sends o as one raw selestwire frame and reads its response.
func (p *parityPair) viaWire(o parityOp) parityOutcome {
	var out parityOutcome
	a0, r0 := admissionCounts()
	p.id++
	if _, err := p.conn.Write(wire.AppendFrame(nil, wire.Frame{Op: o.op, ID: p.id, Payload: o.payload()})); err != nil {
		p.t.Fatal(err)
	}
	f, buf, err := wire.ReadFrame(p.br, wire.MaxPayload, p.rbuf)
	p.rbuf = buf
	if err != nil {
		p.t.Fatal(err)
	}
	a1, r1 := admissionCounts()
	out.admitted, out.rejected = a1-a0, r1-r0
	if f.ID != p.id {
		p.t.Fatalf("response id %d, want %d", f.ID, p.id)
	}
	if f.Op == wire.OpError {
		er, err := wire.DecodeErrorRes(f.Payload)
		if err != nil {
			p.t.Fatal(err)
		}
		out.code, out.msg, out.retry = errcode.Code(er.Code).String(), er.Message, er.RetryAfterMs > 0
		return out
	}
	if f.Op != o.op|wire.RespFlag {
		p.t.Fatalf("response op %s to %s", f.Op, o.op)
	}
	fromWire := func(r wire.EstimateRes) EstimateResult {
		return EstimateResult{Selectivity: r.Selectivity, Rows: r.Rows, Rung: r.Rung, Generation: r.Generation, Degraded: r.Degraded}
	}
	switch o.op {
	case wire.OpEstimate:
		var res wire.EstimateRes
		res, err = wire.DecodeEstimateRes(f.Payload)
		out.results = []EstimateResult{fromWire(res)}
	case wire.OpEstimateBatch:
		var batch wire.EstimateBatchRes
		batch, err = wire.DecodeEstimateBatchRes(f.Payload)
		for _, r := range batch.Results {
			out.results = append(out.results, fromWire(r))
		}
	case wire.OpIngest:
		var res wire.IngestRes
		res, err = wire.DecodeIngestRes(f.Payload)
		out.ingest = IngestResult{Queued: int(res.Queued), Shed: int(res.Shed)}
	}
	if err != nil {
		p.t.Fatalf("wire %s answer: %v", o.op, err)
	}
	return out
}

// sameResults compares answers bit for bit.
func sameResults(a, b []EstimateResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Selectivity) != math.Float64bits(b[i].Selectivity) ||
			math.Float64bits(a[i].Rows) != math.Float64bits(b[i].Rows) ||
			a[i].Rung != b[i].Rung || a[i].Generation != b[i].Generation || a[i].Degraded != b[i].Degraded {
			return false
		}
	}
	return true
}

// check sends o through both transports and fails on any difference.
func (p *parityPair) check(step int, o parityOp) parityOutcome {
	p.t.Helper()
	h, w := p.viaHTTP(o), p.viaWire(o)
	same := h.code == w.code && h.retry == w.retry && h.ingest == w.ingest &&
		h.admitted == w.admitted && h.rejected == w.rejected && sameResults(h.results, w.results)
	if same && h.msg != w.msg && !(o.hasNaN() && h.code == "bad_request") {
		same = false
	}
	if !same {
		p.t.Fatalf("step %d, %s %q/%q (fresh %v, %d queries, %d values) differs by transport:\nHTTP %+v\nwire %+v",
			step, o.op, o.tenant, o.attr, o.fresh, len(o.queries), len(o.values), h, w)
	}
	if o.op == wire.OpIngest && h.code == "" {
		key := o.tenant + "/" + o.attr
		p.rows[key] += h.ingest.Queued
		waitInserted(p.t, p.hs, o.tenant, o.attr, p.rows[key])
		waitInserted(p.t, p.ws, o.tenant, o.attr, p.rows[key])
	}
	return w
}

// inlineMatches serves a goroutine-path batch's queries again in batches
// of at most inlineBatchMax — the inline path — and compares answers.
func (p *parityPair) inlineMatches(step int, o parityOp, want []EstimateResult) {
	var got []EstimateResult
	for lo := 0; lo < len(o.queries); lo += inlineBatchMax {
		part := o
		part.queries = o.queries[lo:min(lo+inlineBatchMax, len(o.queries))]
		res := p.viaWire(part)
		if res.code != "" {
			p.t.Fatalf("step %d: inline re-ask failed: %s %s", step, res.code, res.msg)
		}
		got = append(got, res.results...)
	}
	if !sameResults(got, want) {
		p.t.Fatalf("step %d: %d-query batch answered differently on the goroutine and inline paths", step, len(o.queries))
	}
}

// randomParityOp draws one request: mostly well-formed reads, ingests
// and creates, with malformed, unknown and oversized ones mixed in.
func randomParityOp(r *rand.Rand, step int, maxBatch int) parityOp {
	pick := func(xs ...string) string { return xs[r.IntN(len(xs))] }
	o := parityOp{
		tenant: pick("acme", "acme", "beta", "ghost", ""),
		attr:   pick("price", "price", "weight", "nope", ""),
	}
	rng := func() (float64, float64) {
		lo, hi := r.Float64(), r.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		switch r.IntN(10) {
		case 0:
			lo, hi = hi+0.01, lo // inverted
		case 1:
			lo = math.NaN()
		}
		return lo, hi
	}
	switch k := r.IntN(20); {
	case k < 6:
		o.op = wire.OpEstimate
		o.lo, o.hi = rng()
	case k < 8:
		o.op, o.fresh = wire.OpEstimate, true
		o.lo, o.hi = rng()
	case k < 13:
		o.op = wire.OpEstimateBatch
		n := 1 + r.IntN(16)
		switch r.IntN(8) {
		case 0:
			n = 0
		case 1:
			n = maxBatch + 1
		case 2, 3:
			n = inlineBatchMax + 1 // the goroutine path
		}
		o.fresh = r.IntN(5) == 0
		for i := 0; i < n; i++ {
			lo, hi := r.Float64(), r.Float64()
			o.queries = append(o.queries, wire.Range{Lo: min(lo, hi), Hi: max(lo, hi)})
		}
		if n > 0 && r.IntN(6) == 0 {
			o.queries[r.IntN(n)].Lo, o.queries[r.IntN(n)].Hi = rng()
		}
	case k < 17:
		o.op = wire.OpIngest
		n := 1 + r.IntN(8)
		switch r.IntN(8) {
		case 0:
			n = 0
		case 1:
			n = maxBatch + 1
		}
		for i := 0; i < n; i++ {
			o.values = append(o.values, r.Float64())
		}
		if n > 0 && r.IntN(6) == 0 {
			o.values[r.IntN(n)] = math.NaN()
		}
	case k < 19:
		o.op = wire.OpCreateAttr
		o.tenant = pick("acme", "beta", fmt.Sprintf("t%d", step), "")
		o.attr = pick(fmt.Sprintf("a%d", step), "price", "")
		o.cfg = parityAttrCfg(7)
		switch r.IntN(4) {
		case 0:
			o.cfg = `{"domain_lo":1,"domain_hi":0}` // empty domain
		case 1:
			o.cfg = parityAttrCfg(8) // a conflict when the attribute exists
		}
	default:
		o.op = wire.OpPing
	}
	return o
}

// TestWireTransportParity drives seeded random op sequences through
// HTTP and raw selestwire frames against identically configured servers
// — open, under a burst-2 tenant quota, and under a global bucket — and
// pins bit-identical answers, identical errors (code, message, presence
// of a retry hint) and identical admitted/rejected counts per request.
// Batches of inlineBatchMax+1 queries reach the wire's goroutine path;
// their answers are compared query by query with the same queries
// served inline.
func TestWireTransportParity(t *testing.T) {
	const maxBatch = 100
	scenarios := []struct {
		name string
		opts Options
	}{
		{"open", Options{MaxBatch: maxBatch}},
		{"tenant-quota", Options{MaxBatch: maxBatch, QuotaRate: 1e-3, QuotaBurst: 2}},
		{"global-bucket", Options{MaxBatch: maxBatch, GlobalRate: 1e-3, GlobalBurst: 60}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				p := newParityPair(t, sc.opts)
				// The drifts a single request exposes first: a bad range
				// against an unknown tenant, and bad ranges ahead of a good
				// one under the tenant quota.
				p.check(-3, parityOp{op: wire.OpEstimate, tenant: "ghost", attr: "price", lo: 0.9, hi: 0.1})
				p.check(-2, parityOp{op: wire.OpEstimate, tenant: "acme", attr: "price", lo: 0.9, hi: 0.1})
				p.check(-1, parityOp{op: wire.OpEstimate, tenant: "acme", attr: "price", lo: 0.9, hi: 0.1})
				p.check(0, parityOp{op: wire.OpEstimate, tenant: "acme", attr: "price", lo: 0.1, hi: 0.9})
				r := rand.New(rand.NewPCG(seed, 0))
				for step := 1; step <= 150; step++ {
					o := randomParityOp(r, step, maxBatch)
					res := p.check(step, o)
					if o.op == wire.OpEstimateBatch && !o.fresh && len(o.queries) > inlineBatchMax && res.code == "" && sc.opts.QuotaRate == 0 && sc.opts.GlobalRate == 0 {
						p.inlineMatches(step, o, res.results)
					}
				}
			}
		})
	}
}

// TestWireBudgetTimesOut pins the request core's one deadline on both
// transports: a non-fresh batch whose answering outlasts its 1 ms
// budget fails with timeout — over HTTP, and on the wire's goroutine
// path — rather than answering late. The same batch asked fresh never
// times out: its flush degrades to the snapshot and every query is
// answered (DESIGN.md §12); a tenth of the queries already outlast the
// budget.
func TestWireBudgetTimesOut(t *testing.T) {
	p := newParityPair(t, Options{MaxBatch: 50000})
	for _, fresh := range []bool{false, true} {
		n := 50000
		if fresh {
			n = 5000
		}
		o := parityOp{op: wire.OpEstimateBatch, tenant: "acme", attr: "price", fresh: fresh}
		for i := 0; i < n; i++ {
			o.queries = append(o.queries, wire.Range{Lo: 0, Hi: float64(i+1) / float64(n)})
		}
		path, body := o.http()
		w := do(t, p.h, "POST", path, body, map[string]string{wire.HeaderTimeoutMs: "1"})
		p.id++
		req := wire.EstimateBatchReq{Meta: wire.Meta{TimeoutMs: 1}, Tenant: o.tenant, Attr: o.attr, Fresh: fresh, Queries: o.queries}
		if _, err := p.conn.Write(wire.AppendFrame(nil, wire.Frame{Op: o.op, ID: p.id, Payload: req.Append(nil)})); err != nil {
			t.Fatal(err)
		}
		f, _, err := wire.ReadFrame(p.br, wire.MaxPayload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			if w.Code != http.StatusGatewayTimeout {
				t.Fatalf("HTTP batch past its budget: %d, want 504", w.Code)
			}
			er, err := wire.DecodeErrorRes(f.Payload)
			if f.Op != wire.OpError || err != nil || errcode.Code(er.Code) != errcode.CodeTimeout {
				t.Fatalf("wire batch past its budget: op %s, %+v, %v; want a timeout error frame", f.Op, er, err)
			}
			continue
		}
		var hr struct{ Results []EstimateResult }
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &hr) != nil || len(hr.Results) != n || !hr.Results[0].Degraded {
			t.Fatalf("HTTP fresh batch past its budget: %d, want 200 with %d results, the first degraded", w.Code, n)
		}
		res, err := wire.DecodeEstimateBatchRes(f.Payload)
		if f.Op != wire.OpEstimateBatch|wire.RespFlag || err != nil || len(res.Results) != n || !res.Results[0].Degraded {
			t.Fatalf("wire fresh batch past its budget: op %s, %v; want %d results, the first degraded", f.Op, err, n)
		}
	}
}

// TestCreateAttrIgnoresRetiredFields pins that config fields the service
// no longer has (shards, degrade_after, promote_after), which older
// clients send and older snapshot manifests carry, are accepted and
// ignored on both transports: a create that carries them succeeds, and
// the same create without them is then a no-op, not a conflict.
func TestCreateAttrIgnoresRetiredFields(t *testing.T) {
	p := newParityPair(t, Options{})
	cfg := parityAttrCfg(7)
	retired := strings.TrimSuffix(cfg, "}") + `,"shards":3,"degrade_after":2,"promote_after":2}`
	for step, c := range []string{retired, cfg} {
		if out := p.check(step, parityOp{op: wire.OpCreateAttr, tenant: "acme", attr: "retired", cfg: c}); out.code != "" {
			t.Fatalf("create with %s: %s %s", c, out.code, out.msg)
		}
	}
	for _, s := range []*Server{p.hs, p.ws} {
		if n := s.Stats().Attributes; n != 5 {
			t.Fatalf("%d attributes, want the pair's 4 and acme/retired", n)
		}
	}
}
