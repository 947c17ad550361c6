package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selest/internal/faultinject"
	"selest/internal/telemetry"
)

// do runs one request through the handler in-process and returns the
// recorded response.
func do(t *testing.T, h http.Handler, method, path, body string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeErrorBody(t *testing.T, w *httptest.ResponseRecorder) apiError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("non-2xx body is not a typed error: %v (%s)", err, w.Body.String())
	}
	if eb.Error.Code == "" {
		t.Fatalf("error body has no code: %s", w.Body.String())
	}
	return eb.Error
}

// newHTTPFixture builds a server with one fitted attribute and returns
// its handler.
func newHTTPFixture(t *testing.T, cfg Options) (*Server, http.Handler) {
	t.Helper()
	s := mustServer(t, cfg)
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 64)
	return s, s.Handler()
}

func TestHTTPEndToEnd(t *testing.T) {
	s := mustServer(t, Options{})
	h := s.Handler()

	w := do(t, h, "POST", "/v1/attrs",
		`{"tenant":"acme","attr":"price","config":{"domain_lo":0,"domain_hi":1,"reservoir_size":64,"refit_every":64,"seed":7}}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("create attr: %d %s", w.Code, w.Body.String())
	}

	var values strings.Builder
	values.WriteString(`{"tenant":"acme","attr":"price","values":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			values.WriteByte(',')
		}
		fmt.Fprintf(&values, "%g", (float64(i)+0.5)/64)
	}
	values.WriteString(`]}`)
	w = do(t, h, "POST", "/v1/ingest", values.String(), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	var ir IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil || ir.Queued != 64 {
		t.Fatalf("ingest result %s (err %v), want 64 queued", w.Body.String(), err)
	}
	waitInserted(t, s, "acme", "price", 64)

	w = do(t, h, "POST", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":0.5,"fresh":true}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", w.Code, w.Body.String())
	}
	var res EstimateResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Rung != "fresh" || res.Selectivity <= 0.3 || res.Selectivity >= 0.7 {
		t.Fatalf("estimate %+v, want rung fresh with selectivity near 0.5", res)
	}

	w = do(t, h, "POST", "/v1/estimate/batch",
		`{"tenant":"acme","attr":"price","queries":[{"lo":0,"hi":0.25},{"lo":0.25,"hi":1}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var batch struct {
		Results []EstimateResult `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("batch body %s (err %v), want 2 results", w.Body.String(), err)
	}

	w = do(t, h, "GET", "/healthz", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"attributes":1`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
	w = do(t, h, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "selest_server_admitted_total") {
		t.Fatalf("/metrics exposition missing service series: %d", w.Code)
	}
}

// TestHTTPPanicContainment pins per-request panic containment: an
// injected handler panic becomes a typed 500 on that request alone, and
// the very next request is served normally.
func TestHTTPPanicContainment(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, h := newHTTPFixture(t, Options{})
	body := `{"tenant":"acme","attr":"price","lo":0,"hi":1}`

	before := telemetry.Default.Snapshot().Counters["selest_server_panics_total"]
	faultinject.EnablePanic(FaultHandler, "chaos: handler panic")
	w := do(t, h, "POST", "/v1/estimate", body, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d, want 500", w.Code)
	}
	if e := decodeErrorBody(t, w); e.Code != "internal" {
		t.Fatalf("panic error code %q, want internal", e.Code)
	}
	after := telemetry.Default.Snapshot().Counters["selest_server_panics_total"]
	if after != before+1 {
		t.Fatalf("panic counter moved %d -> %d, want +1", before, after)
	}

	faultinject.Disable(FaultHandler)
	if w := do(t, h, "POST", "/v1/estimate", body, nil); w.Code != http.StatusOK {
		t.Fatalf("request after contained panic: %d %s", w.Code, w.Body.String())
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, h := newHTTPFixture(t, Options{})
	w := do(t, h, "GET", "/v1/estimate", "", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST endpoint: %d, want 405", w.Code)
	}
	decodeErrorBody(t, w)
}

// TestHTTPDeadlineHeaderDegrades pins deadline propagation end to end: a
// client budget below DegradeDeadline turns a fresh=true estimate into a
// degraded snapshot answer instead of a slow or failed request.
func TestHTTPDeadlineHeaderDegrades(t *testing.T) {
	_, h := newHTTPFixture(t, Options{DegradeDeadline: 50 * time.Millisecond})
	// Prime a fit so the snapshot rung has something to serve.
	w := do(t, h, "POST", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":1,"fresh":true}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("priming estimate: %d %s", w.Code, w.Body.String())
	}
	w = do(t, h, "POST", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":0.5,"fresh":true}`,
		map[string]string{"X-Selest-Timeout-Ms": "1"})
	if w.Code != http.StatusOK {
		t.Fatalf("tight-deadline estimate: %d %s", w.Code, w.Body.String())
	}
	var res EstimateResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Rung != "snapshot" || !res.Degraded {
		t.Fatalf("tight deadline: rung %q degraded %v, want snapshot true", res.Rung, res.Degraded)
	}
}

func TestHTTPRetryHeaderCounts(t *testing.T) {
	_, h := newHTTPFixture(t, Options{})
	body := `{"tenant":"acme","attr":"price","lo":0,"hi":1}`
	before := telemetry.Default.Snapshot().Counters["selest_server_retried_total"]
	do(t, h, "POST", "/v1/estimate", body, map[string]string{"X-Selest-Retry": "2"})
	do(t, h, "POST", "/v1/estimate", body, nil) // not a retry
	after := telemetry.Default.Snapshot().Counters["selest_server_retried_total"]
	if after != before+1 {
		t.Fatalf("retried counter moved %d -> %d, want +1", before, after)
	}
}

func TestHTTPQuota429(t *testing.T) {
	_, h := newHTTPFixture(t, Options{QuotaRate: 1, QuotaBurst: 1})
	body := `{"tenant":"acme","attr":"price","lo":0,"hi":1}`
	first := do(t, h, "POST", "/v1/estimate", body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first request within burst: %d", first.Code)
	}
	second := do(t, h, "POST", "/v1/estimate", body, nil)
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", second.Code)
	}
	if e := decodeErrorBody(t, second); e.Code != "over_quota" {
		t.Fatalf("429 code %q, want over_quota", e.Code)
	}
	if ra := second.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHTTPDecodersRejectMalformed is the deterministic companion of the
// fuzz pass: each canonical malformation maps to a typed 400.
func TestHTTPDecodersRejectMalformed(t *testing.T) {
	_, h := newHTTPFixture(t, Options{})
	cases := []struct {
		name, path, body string
	}{
		{"truncated json", "/v1/estimate", `{"tenant":"acme"`},
		{"trailing garbage", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":1} extra`},
		{"second document", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":1}{}`},
		{"nan literal", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":NaN,"hi":1}`},
		{"overflow to inf", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":1e999}`},
		{"inverted range", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0.9,"hi":0.1}`},
		{"missing names", "/v1/estimate", `{"lo":0,"hi":1}`},
		{"wrong type", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":"zero","hi":1}`},
		{"array not object", "/v1/estimate", `[1,2,3]`},
		{"empty body", "/v1/estimate", ``},
		{"empty batch", "/v1/estimate/batch", `{"tenant":"acme","attr":"price","queries":[]}`},
		{"batch nan", "/v1/estimate/batch", `{"tenant":"acme","attr":"price","queries":[{"lo":0,"hi":1},{"lo":0.5,"hi":0.2}]}`},
		{"empty values", "/v1/ingest", `{"tenant":"acme","attr":"price","values":[]}`},
		{"ingest inf", "/v1/ingest", `{"tenant":"acme","attr":"price","values":[1,1e999]}`},
		{"attrs missing names", "/v1/attrs", `{"config":{"domain_lo":0,"domain_hi":1}}`},
		{"attrs inverted domain", "/v1/attrs", `{"tenant":"t","attr":"a","config":{"domain_lo":1,"domain_hi":0}}`},
	}
	for _, c := range cases {
		w := do(t, h, "POST", c.path, c.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", c.name, w.Code, w.Body.String())
			continue
		}
		if e := decodeErrorBody(t, w); e.Code != "bad_request" {
			t.Errorf("%s: error code %q, want bad_request", c.name, e.Code)
		}
	}
	// A batch beyond MaxBatch is refused before any work happens.
	var big bytes.Buffer
	big.WriteString(`{"tenant":"acme","attr":"price","queries":[`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(`{"lo":0,"hi":1}`)
	}
	big.WriteString(`]}`)
	if w := do(t, h, "POST", "/v1/estimate/batch", big.String(), nil); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d, want 400", w.Code)
	}
	// A malformed budget takes the server default, and one too long for
	// a time.Duration is no limit, never a deadline already past.
	for _, ms := range []string{"abc", "-5", "0", "9300000000000", "9223372036854775807", "99999999999999999999"} {
		w := do(t, h, "POST", "/v1/estimate", `{"tenant":"acme","attr":"price","lo":0,"hi":1}`,
			map[string]string{"X-Selest-Timeout-Ms": ms})
		if w.Code != http.StatusOK {
			t.Errorf("budget header %q: status %d, want 200 (body %s)", ms, w.Code, w.Body.String())
		}
	}
}
