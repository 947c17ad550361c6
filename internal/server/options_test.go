package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"selest/internal/core"
	"selest/internal/errcode"
	"selest/internal/wire"
)

// TestOptionsValidate pins the typed-rejection contract (ISSUE satellite
// 2): every out-of-range field is a core.ErrBadOption at construction
// time, and the zero value is a working server.
func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{QuotaRate: 10, QuotaBurst: 100},
		{QueueCap: 1, MaxBatch: 1, MaxInflight: 1},
		{DefaultTimeout: time.Second, DegradeDeadline: time.Millisecond},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good[%d] rejected: %v", i, err)
		}
		if _, err := NewServer(o); err != nil {
			t.Errorf("good[%d]: NewServer: %v", i, err)
		}
	}

	bad := []Options{
		{QuotaRate: math.NaN()},
		{QuotaRate: math.Inf(1)},
		{QuotaBurst: -1},
		{QuotaBurst: math.NaN()},
		{QuotaRate: 5}, // positive rate with zero burst can never admit
		{QueueCap: -1},
		{DefaultTimeout: -time.Second},
		{DegradeDeadline: -time.Millisecond},
		{MaxInflight: -1},
		{MaxBatch: -1},
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("bad[%d] %+v accepted", i, o)
			continue
		}
		if !errors.Is(err, core.ErrBadOption) {
			t.Errorf("bad[%d]: error %v is not core.ErrBadOption", i, err)
		}
		if _, err := NewServer(o); err == nil {
			t.Errorf("bad[%d]: NewServer accepted %+v", i, o)
		}
	}
}

// TestNewServerDefaults pins the default every zero limit takes.
func TestNewServerDefaults(t *testing.T) {
	s, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.QueueCap != 8192 || s.cfg.DefaultTimeout != 5*time.Second ||
		s.cfg.DegradeDeadline != 25*time.Millisecond || s.cfg.MaxInflight != 1024 ||
		s.cfg.MaxBatch != 4096 {
		t.Fatalf("defaults wrong: %+v", s.cfg)
	}
}

// TestAttrLimitOverQuota pins the attribute limit on both transports:
// once maxAttrs attributes exist, the next create_attr is over_quota
// over HTTP and over selestwire alike.
func TestAttrLimitOverQuota(t *testing.T) {
	s := mustServer(t, Options{})
	for i := 0; i < maxAttrs; i++ {
		if err := s.CreateAttr("acme", fmt.Sprint("a", i), testAttrCfg()); err != nil {
			t.Fatalf("attribute %d of %d: %v", i+1, maxAttrs, err)
		}
	}
	const cfg = `{"domain_lo":0,"domain_hi":1}`

	w := do(t, s.Handler(), "POST", "/v1/attrs", `{"tenant":"acme","attr":"over","config":`+cfg+`}`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP create past the limit: status %d: %s", w.Code, w.Body.String())
	}
	if code := decodeErrorBody(t, w).Code; code != errcode.CodeOverQuota.String() {
		t.Fatalf("HTTP create past the limit: code %q, want over_quota", code)
	}

	_, addr := startWireServer(t, s)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := wire.CreateAttrReq{Tenant: "acme", Attr: "over", Config: []byte(cfg)}.Append(nil)
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Op: wire.OpCreateAttr, ID: 1, Payload: req})); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadFrame(conn, wire.MaxPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpError {
		t.Fatalf("wire create past the limit answered %s", f.Op)
	}
	er, err := wire.DecodeErrorRes(f.Payload)
	if err != nil || errcode.Code(er.Code) != errcode.CodeOverQuota {
		t.Fatalf("wire create past the limit: %+v, %v (want over_quota)", er, err)
	}
}
