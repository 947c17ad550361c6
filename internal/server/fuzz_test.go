package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selest/internal/errcode"
	"selest/internal/wire"
)

// FuzzHTTPDecoders throws arbitrary bytes at every POST endpoint and pins
// the decoder contract (ISSUE satellite 6): malformed JSON, NaN/Inf
// spellings, inverted ranges, wrong types, truncations — whatever the
// fuzzer finds — always yield a 4xx with a typed JSON error body. Never a
// panic (a contained panic would surface as a 500, so "no 5xx" pins both
// halves at once).
func FuzzHTTPDecoders(f *testing.F) {
	seeds := []string{
		`{"tenant":"acme","attr":"price","lo":0,"hi":1}`,
		`{"tenant":"acme","attr":"price","lo":0.9,"hi":0.1}`,
		`{"tenant":"acme","attr":"price","lo":NaN,"hi":Infinity}`,
		`{"tenant":"acme","attr":"price","lo":0,"hi":1e999}`,
		`{"tenant":"acme","attr":"price","values":[1,2,3]}`,
		`{"tenant":"acme","attr":"price","values":[]}`,
		`{"tenant":"acme","attr":"price","queries":[{"lo":0,"hi":1}]}`,
		`{"tenant":"a","attr":"b","config":{"domain_lo":0,"domain_hi":1}}`,
		`{"tenant":"a","attr":"b","config":{"domain_lo":1,"domain_hi":0}}`,
		`{"tenant":"acme","attr":"price","lo":0,"hi":1}{}`,
		`{"tenant":"acme"`,
		`[]`,
		`null`,
		`"string"`,
		``,
		"\x00\x01\x02",
		`{"tenant":" ","attr":"\n","lo":-1e308,"hi":1e308}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	paths := []string{"/v1/estimate", "/v1/estimate/batch", "/v1/ingest", "/v1/attrs"}

	// One long-lived server for the whole fuzz run: decoders must hold
	// regardless of accumulated state; the attribute limit bounds
	// fuzzer-created attributes.
	s := mustServer(f, Options{MaxBatch: 64, QueueCap: 64})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range paths {
			req := httptest.NewRequest("POST", path, strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code >= 500 {
				t.Fatalf("%s: body %q produced status %d: %s", path, body, w.Code, w.Body.String())
			}
			if w.Code != http.StatusOK {
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
					t.Fatalf("%s: body %q produced untyped %d error: %s", path, body, w.Code, w.Body.String())
				}
			}
		}
	})
}

// FuzzWireRequests sends an arbitrary op byte and payload through the
// wire front over a piped connection and pins its contract: never a
// panic, and every reply is either a well-formed response to that op or
// an error frame whose code is not internal — malformed, unknown,
// oversized and hostile requests are the client's fault, never the
// server's.
func FuzzWireRequests(f *testing.F) {
	meta := wire.Meta{TimeoutMs: 100}
	f.Add(byte(wire.OpEstimate), wire.EstimateReq{Meta: meta, Tenant: "acme", Attr: "price", Lo: 0.1, Hi: 0.9}.Append(nil))
	f.Add(byte(wire.OpEstimate), wire.EstimateReq{Meta: meta, Tenant: "acme", Attr: "price", Lo: 0.9, Hi: 0.1, Fresh: true}.Append(nil))
	f.Add(byte(wire.OpEstimateBatch), wire.EstimateBatchReq{Meta: meta, Tenant: "acme", Attr: "price",
		Queries: []wire.Range{{Lo: 0, Hi: 0.5}, {Lo: 0.25, Hi: 1}}}.Append(nil))
	f.Add(byte(wire.OpIngest), wire.IngestReq{Meta: meta, Tenant: "acme", Attr: "price", Values: []float64{0.5, 0.25}}.Append(nil))
	f.Add(byte(wire.OpCreateAttr), wire.CreateAttrReq{Meta: meta, Tenant: "t", Attr: "a",
		Config: []byte(`{"domain_lo":0,"domain_hi":1}`)}.Append(nil))
	f.Add(byte(wire.OpPing), wire.PingReq{Meta: meta}.Append(nil))
	f.Add(byte(wire.OpSnapshotFetch), wire.SnapshotFetchReq{Meta: meta}.Append(nil))
	f.Add(byte(0x7E), []byte{})
	f.Add(byte(wire.OpEstimate), []byte{0xFF, 0xFF})

	// One long-lived server for the whole run, bounded like
	// FuzzHTTPDecoders' so fuzzer-created attributes and ingests stay
	// small.
	s := mustServer(f, Options{MaxBatch: 64, QueueCap: 64})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		f.Fatal(err)
	}
	ws := s.NewWireServer()

	f.Fuzz(func(t *testing.T, opByte byte, payload []byte) {
		op := wire.Op(opByte)
		cli, srv := net.Pipe()
		defer cli.Close()
		if !ws.register(srv) {
			t.Fatal("connection refused before shutdown")
		}
		served := make(chan struct{})
		go func() {
			ws.serveConn(srv)
			close(served)
		}()
		_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
		go func() { _, _ = cli.Write(wire.AppendFrame(nil, wire.Frame{Op: op, ID: 7, Payload: payload})) }()
		fr, _, err := wire.ReadFrame(cli, wire.MaxPayload, nil)
		if err != nil {
			t.Fatalf("op 0x%02x: no reply: %v", opByte, err)
		}
		if fr.ID != 7 {
			t.Fatalf("op 0x%02x: reply id %d, want 7", opByte, fr.ID)
		}
		if fr.Op == wire.OpError {
			er, err := wire.DecodeErrorRes(fr.Payload)
			if err != nil {
				t.Fatalf("op 0x%02x: undecodable error frame: %v", opByte, err)
			}
			if c := errcode.Code(er.Code); c == errcode.CodeOK || c == errcode.CodeInternal {
				t.Fatalf("op 0x%02x: error frame with code %s: %s", opByte, c, er.Message)
			}
		} else {
			if fr.Op != op|wire.RespFlag {
				t.Fatalf("op 0x%02x answered with %s", opByte, fr.Op)
			}
			switch op {
			case wire.OpEstimate:
				_, err = wire.DecodeEstimateRes(fr.Payload)
			case wire.OpEstimateBatch:
				_, err = wire.DecodeEstimateBatchRes(fr.Payload)
			case wire.OpIngest:
				_, err = wire.DecodeIngestRes(fr.Payload)
			case wire.OpSnapshotFetch:
				if !bytes.HasPrefix(fr.Payload, []byte("SELS")) {
					err = errors.New("not a SELS snapshot envelope")
				}
			default:
				if len(fr.Payload) != 0 {
					err = errors.New("non-empty payload")
				}
			}
			if err != nil {
				t.Fatalf("op 0x%02x: malformed response: %v", opByte, err)
			}
		}
		cli.Close()
		<-served
	})
}
