// HTTP/JSON transport: each endpoint checks its method, decodes its JSON
// body into a call, runs the request core (core.go) and encodes the
// answer — or the typed JSON error every non-2xx response carries, never
// a bare string and never a panic escaping to the connection. The
// client's budget comes from the X-Selest-Timeout-Ms header (defaulted
// from Options.DefaultTimeout).
package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"selest/internal/errcode"
	"selest/internal/telemetry"
	"selest/internal/wire"
)

// The typed error body every non-2xx response carries is the
// transport-neutral envelope from internal/errcode: the wire transport
// sends the same (code, message) pair in its error frames.
type (
	apiError  = errcode.APIError
	errorBody = errcode.ErrorBody
)

// writeError maps a service error to its HTTP status and typed body via
// the shared errcode registry — the single classification both
// transports use. An over-quota refusal carries Retry-After in whole
// seconds, rounded up: retrying early would just 429 again.
func writeError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	code := errcode.Classify(err)
	writeJSON(w, code.HTTPStatus(), errorBody{Error: apiError{Code: code.String(), Message: err.Error()}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Request payloads, one per POST endpoint; their checks are the core's.

type estimateRequest struct {
	Tenant string  `json:"tenant"`
	Attr   string  `json:"attr"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Fresh  bool    `json:"fresh,omitempty"`
}

type batchEstimateRequest struct {
	Tenant  string       `json:"tenant"`
	Attr    string       `json:"attr"`
	Queries []RangeQuery `json:"queries"`
	Fresh   bool         `json:"fresh,omitempty"`
}

type ingestRequest struct {
	Tenant string    `json:"tenant"`
	Attr   string    `json:"attr"`
	Values []float64 `json:"values"`
}

type createAttrRequest struct {
	Tenant string     `json:"tenant"`
	Attr   string     `json:"attr"`
	Config AttrConfig `json:"config"`
}

// decodeJSON decodes one JSON document from r, rejecting trailing
// garbage. JSON cannot carry NaN or Inf, so a non-finite number is a
// decode error here.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(dst); err != nil {
		return err
	}
	// A second document (or trailing garbage) is malformed.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// decodeBody decodes c.op's JSON body into c; a body that does not
// decode becomes c.bad.
func decodeBody(body io.Reader, c *call) {
	switch c.op {
	case wire.OpEstimate:
		var req estimateRequest
		c.bad = decodeJSON(body, &req)
		c.tenant, c.attr, c.lo, c.hi, c.fresh = nameBytes(req.Tenant), nameBytes(req.Attr), req.Lo, req.Hi, req.Fresh
	case wire.OpEstimateBatch:
		var req batchEstimateRequest
		c.bad = decodeJSON(body, &req)
		c.tenant, c.attr, c.queries, c.fresh = nameBytes(req.Tenant), nameBytes(req.Attr), req.Queries, req.Fresh
	case wire.OpIngest:
		var req ingestRequest
		c.bad = decodeJSON(body, &req)
		c.tenant, c.attr, c.values = nameBytes(req.Tenant), nameBytes(req.Attr), req.Values
	case wire.OpCreateAttr:
		var req createAttrRequest
		c.bad = decodeJSON(body, &req)
		c.tenant, c.attr, c.cfg = nameBytes(req.Tenant), nameBytes(req.Attr), &req.Config
	}
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/attrs          — create an attribute (idempotent)
//	POST /v1/estimate       — one range query
//	POST /v1/estimate/batch — many range queries, one attribute
//	POST /v1/ingest         — enqueue stream values (backpressured)
//	GET  /v1/snapshot       — the crash-safe snapshot envelope (snapshot
//	                          shipping: how a joining replica warm-boots)
//	GET  /healthz           — liveness + drain state
//	GET  /metrics           — Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/attrs", s.endpoint(wire.OpCreateAttr))
	mux.HandleFunc("/v1/estimate", s.endpoint(wire.OpEstimate))
	mux.HandleFunc("/v1/estimate/batch", s.endpoint(wire.OpEstimateBatch))
	mux.HandleFunc("/v1/ingest", s.endpoint(wire.OpIngest))
	mux.HandleFunc("/v1/snapshot", s.endpoint(wire.OpSnapshotFetch))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("/metrics", telemetry.Handler())
	return mux
}

// endpoint is op's HTTP transport. The snapshot is a GET whose answer is
// the SELS envelope verbatim: its own CRCs make the transfer
// self-verifying, so a torn download fails the joiner's recovery as
// catalog.ErrTornSnapshot, never a silent partial boot. Every other op is
// a POST answered in JSON.
func (s *Server) endpoint(op wire.Op) http.HandlerFunc {
	method := http.MethodPost
	if op == wire.OpSnapshotFetch {
		method = http.MethodGet
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer srvLatencyNanos.ObserveSince(start)
		if r.Method != method {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: apiError{
				Code: errcode.CodeMethodNotAllowed.String(), Message: "use " + method,
			}})
			return
		}
		// The headers are the untyped form of wire.Meta: a malformed or
		// absent budget takes the server default.
		ms, _ := strconv.ParseInt(r.Header.Get(wire.HeaderTimeoutMs), 10, 64)
		retry := r.Header.Get(wire.HeaderRetry)
		c := call{op: op, retry: retry != "" && retry != "0", deadline: s.deadline(op, start, ms), ctx: r.Context()}
		if op != wire.OpSnapshotFetch {
			decodeBody(http.MaxBytesReader(w, r.Body, wire.MaxPayload), &c)
		}
		var rep reply
		if err := s.serve(&c, &rep); err != nil {
			writeError(w, err, rep.retryAfter)
			return
		}
		switch op {
		case wire.OpEstimate:
			writeJSON(w, http.StatusOK, rep.res)
		case wire.OpEstimateBatch:
			writeJSON(w, http.StatusOK, map[string]any{"results": rep.results})
		case wire.OpIngest:
			writeJSON(w, http.StatusOK, rep.ingest)
		case wire.OpCreateAttr:
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		case wire.OpSnapshotFetch:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(rep.snapshot)))
			_, _ = w.Write(rep.snapshot)
		}
	}
}
