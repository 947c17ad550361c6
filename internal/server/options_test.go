package server

import (
	"errors"
	"math"
	"testing"
	"time"

	"selest/internal/core"
)

// TestOptionsValidate pins the typed-rejection contract (ISSUE satellite
// 2): every out-of-range field is a core.ErrBadOption at construction
// time, and the zero value is a working server.
func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{QuotaRate: 10, QuotaBurst: 100},
		{QueueCap: 1, MaxBatch: 1, MaxAttrs: 1, MaxInflight: 1, MaxPayloadBytes: 1024},
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
		{MaxAttrs: -1},
		{MaxPayloadBytes: -1},
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
		s.cfg.MaxBatch != 4096 || s.cfg.MaxAttrs != 4096 || s.cfg.MaxPayloadBytes != 16<<20 {
		t.Fatalf("defaults wrong: %+v", s.cfg)
	}
}
