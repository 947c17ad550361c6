package server

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// testAttrCfg is a small deterministic attribute: reservoir 64, cadence
// refit every 64 inserts, seeded so sampling is the exact seeded Vitter
// sequence.
func testAttrCfg() AttrConfig {
	return AttrConfig{
		DomainLo:      0,
		DomainHi:      1,
		ReservoirSize: 64,
		RefitEvery:    64,
		Seed:          7,
	}
}

// mustServer builds a server from options the test knows are valid,
// failing the test on a validation error.
func mustServer(t testing.TB, o Options) *Server {
	t.Helper()
	s, err := NewServer(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitInserted polls until the attribute's drainer has moved at least n
// values into the reservoir engine — the only way an async ingest becomes
// deterministic to observe.
func waitInserted(t *testing.T, s *Server, tenant, attr string, n int) {
	t.Helper()
	a, err := s.attr(tenant, attr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.est.Inserts() < n {
		if time.Now().After(deadline) {
			t.Fatalf("drainer stuck: %d of %d values inserted", a.est.Inserts(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = (float64(i) + 0.5) / float64(n)
	}
	return vs
}

func TestCreateAttrIdempotentAndConflict(t *testing.T) {
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatalf("identical re-create must be a no-op, got %v", err)
	}
	other := cfg
	other.ReservoirSize = 128
	if err := s.CreateAttr("acme", "price", other); !errors.Is(err, ErrConflict) {
		t.Fatalf("differing re-create: %v, want ErrConflict", err)
	}
	if err := s.CreateAttr("", "x", cfg); !errors.Is(err, ErrBadValue) {
		t.Fatalf("empty tenant: %v, want ErrBadValue", err)
	}
	bad := cfg
	bad.DomainLo, bad.DomainHi = 1, 0
	if err := s.CreateAttr("acme", "y", bad); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted domain: %v, want ErrBadRange", err)
	}
	st := s.Stats()
	if st.Tenants != 1 || st.Attributes != 1 {
		t.Fatalf("stats %+v, want 1 tenant / 1 attribute", st)
	}
}

// TestEstimateLadderRungs walks every rung bottom-up: an empty attribute
// answers uniform, queued-but-unfitted data answers the reservoir
// fraction, and a fresh=true estimate flushes a fit and answers fresh.
func TestEstimateLadderRungs(t *testing.T) {
	s := mustServer(t, Options{})
	ctx := context.Background()
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}

	res, err := s.Estimate(ctx, "acme", "price", 0.25, 0.75, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "uniform" || math.Abs(res.Selectivity-0.5) > 1e-12 {
		t.Fatalf("empty attribute: rung %q sel %v, want uniform 0.5", res.Rung, res.Selectivity)
	}

	// 32 values: below reservoir capacity, so no auto refit fires and the
	// ladder answers from the raw reservoir.
	if _, err := s.Ingest("acme", "price", seq(32)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 32)
	res, err = s.Estimate(ctx, "acme", "price", 0, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "reservoir" {
		t.Fatalf("unfitted attribute: rung %q, want reservoir", res.Rung)
	}
	if math.Abs(res.Selectivity-0.5) > 1e-12 {
		t.Fatalf("reservoir fraction %v, want 0.5 (16 of 32 values in [0, 0.5])", res.Selectivity)
	}
	if res.Rows != res.Selectivity*32 {
		t.Fatalf("rows %v, want selectivity × 32 ingested", res.Rows)
	}

	res, err = s.Estimate(ctx, "acme", "price", 0, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "fresh" || res.Degraded {
		t.Fatalf("fresh estimate: rung %q degraded %v, want fresh false", res.Rung, res.Degraded)
	}
	if res.Generation == 0 {
		t.Fatal("fresh estimate left generation 0: no fit was published")
	}

	// Steady state: fresh=false answers the snapshot without degradation.
	res, err = s.Estimate(ctx, "acme", "price", 0, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "snapshot" || res.Degraded {
		t.Fatalf("steady state: rung %q degraded %v, want snapshot false", res.Rung, res.Degraded)
	}
}

// TestEstimateDegradesOnTightDeadline pins the deadline rung of the
// ladder: fresh=true with less budget than DegradeDeadline answers from
// the snapshot, flagged Degraded, instead of racing a refit.
func TestEstimateDegradesOnTightDeadline(t *testing.T) {
	s := mustServer(t, Options{DegradeDeadline: 50 * time.Millisecond})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 64)
	if _, err := s.Estimate(context.Background(), "acme", "price", 0, 1, true); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := s.Estimate(ctx, "acme", "price", 0, 0.5, true)
	if err != nil {
		t.Fatalf("a tight deadline must degrade, not error: %v", err)
	}
	if res.Rung != "snapshot" || !res.Degraded {
		t.Fatalf("tight deadline: rung %q degraded %v, want snapshot true", res.Rung, res.Degraded)
	}
}

func TestEstimateRejectsMalformed(t *testing.T) {
	s := mustServer(t, Options{})
	ctx := context.Background()
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(ctx, "acme", "price", math.NaN(), 1, false); !errors.Is(err, ErrBadRange) {
		t.Fatalf("NaN bound: %v, want ErrBadRange", err)
	}
	if _, err := s.Estimate(ctx, "acme", "price", 0.9, 0.1, false); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted range: %v, want ErrBadRange", err)
	}
	if _, err := s.Estimate(ctx, "acme", "nope", 0, 1, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown attr: %v, want ErrNotFound", err)
	}
	if _, err := s.Estimate(ctx, "nobody", "price", 0, 1, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown tenant: %v, want ErrNotFound", err)
	}
	if _, err := s.Ingest("acme", "price", []float64{1, math.Inf(1)}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("Inf ingest: %v, want ErrBadValue", err)
	}
	if _, err := s.Ingest("acme", "price", nil); !errors.Is(err, ErrBadValue) {
		t.Fatalf("empty ingest: %v, want ErrBadValue", err)
	}
}

func TestEstimateBatchFlushesOnce(t *testing.T) {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(32)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 32)
	queries := []RangeQuery{{Lo: 0, Hi: 0.25}, {Lo: 0.25, Hi: 0.5}, {Lo: 0.5, Hi: 1}}
	res, err := s.EstimateBatch(context.Background(), "acme", "price", queries, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Rung != "fresh" {
		t.Fatalf("first of batch: rung %q, want fresh", res[0].Rung)
	}
	for i := 1; i < 3; i++ {
		if res[i].Rung != "snapshot" {
			t.Fatalf("rest of batch: rung %q, want snapshot (one flush per batch)", res[i].Rung)
		}
	}
	if _, err := s.EstimateBatch(context.Background(), "acme", "price", nil, false); !errors.Is(err, ErrBadRange) {
		t.Fatalf("empty batch: %v, want ErrBadRange", err)
	}
	bad := []RangeQuery{{Lo: 0, Hi: 1}, {Lo: math.NaN(), Hi: 1}}
	if _, err := s.EstimateBatch(context.Background(), "acme", "price", bad, false); !errors.Is(err, ErrBadRange) {
		t.Fatalf("batch with NaN: %v, want ErrBadRange", err)
	}
}

// TestIngestShedsUnderPressure pins the backpressure contract: a burst
// larger than the queue sheds deterministically, the count comes back to
// the caller, and the newest values are the ones kept.
func TestIngestShedsUnderPressure(t *testing.T) {
	s := mustServer(t, Options{QueueCap: 8})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest("acme", "price", seq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued != 100 {
		t.Fatalf("queued %d of a 100-value burst, want all 100", res.Queued)
	}
	if res.Shed != 92 {
		t.Fatalf("shed %d, want 92 (the burst's own overflow)", res.Shed)
	}
}

// TestOversizeIngestKeepsConservation pins the conservation law for an
// ingest larger than the queue: counted as pushing its values one at a
// time would, inserted == accepted − shed, the depth total returns to 0
// once drained, and the row count covers the whole burst.
func TestOversizeIngestKeepsConservation(t *testing.T) {
	s := mustServer(t, Options{QueueCap: 8})
	cfg := testAttrCfg()
	cfg.ReservoirSize = 128
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest("acme", "price", seq(100))
	if err != nil {
		t.Fatal(err)
	}
	want := res.Queued - res.Shed
	if want != 8 {
		t.Fatalf("accepted %d − shed %d = %d, want the queue's 8", res.Queued, res.Shed, want)
	}
	waitInserted(t, s, "acme", "price", want)
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if n := a.est.Inserts(); n != want {
		t.Fatalf("%d values inserted, want accepted − shed = %d", n, want)
	}
	if d := s.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth total %d after the drain, want 0", d)
	}
	if rows := a.rows.Load(); rows != 100 {
		t.Fatalf("rows %d, want all 100 values of the burst", rows)
	}
}

func TestAdmissionQuota(t *testing.T) {
	s := mustServer(t, Options{QuotaRate: 1, QuotaBurst: 2})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	// CreateAttr charged nothing; the bucket holds its burst of 2.
	if _, err := s.Admit("acme", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit("acme", 1); err != nil {
		t.Fatal(err)
	}
	retry, err := s.Admit("acme", 1)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("drained tenant admitted: %v", err)
	}
	if retry <= 0 || retry > 2*time.Second {
		t.Fatalf("Retry-After %v, want (0, 2s] at 1 token/s", retry)
	}
	// Unknown tenants pass admission and fail downstream with not-found,
	// so probing tenant names cannot consume quota state.
	if _, err := s.Admit("stranger", 1); err != nil {
		t.Fatalf("unknown tenant consumed quota: %v", err)
	}
}

func TestCloseIdempotentAndRefusesNewWork(t *testing.T) {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(16)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx, ""); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	if !s.Draining() {
		t.Fatal("Draining false after Close")
	}
	if _, err := s.Ingest("acme", "price", seq(4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("ingest after Close: %v, want ErrDraining", err)
	}
	if err := s.CreateAttr("acme", "other", testAttrCfg()); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after Close: %v, want ErrDraining", err)
	}
	// Queries still answer: shutdown stops ingest, not reads.
	if _, err := s.Estimate(context.Background(), "acme", "price", 0, 1, false); err != nil {
		t.Fatalf("estimate after Close errored: %v", err)
	}
}

// TestCloseFitsNothing: shutdown drains and saves but refits no
// attribute, so each keeps the generation it served before Close. The
// snapshot stores samples, and recovery fits each attribute once.
func TestCloseFitsNothing(t *testing.T) {
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	cfg.RefitEvery = -1 // only the fill refit
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, "acme", "price", seq(200))
	waitGeneration(t, s, "acme", "price", 1)
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx, filepath.Join(t.TempDir(), "snap.selest")); err != nil {
		t.Fatal(err)
	}
	if g := a.est.Generation(); g != 1 {
		t.Fatalf("generation %d after Close, want 1: shutdown refitted", g)
	}
}

func TestUniformFractionClipping(t *testing.T) {
	cases := []struct {
		dLo, dHi, lo, hi, want float64
	}{
		{0, 10, 0, 5, 0.5},
		{0, 10, -5, 5, 0.5},  // clip left
		{0, 10, 5, 100, 0.5}, // clip right
		{0, 10, -5, 100, 1},  // superset
		{0, 10, 20, 30, 0},   // disjoint
	}
	for _, c := range cases {
		if got := uniformFraction(c.dLo, c.dHi, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("uniformFraction(%v,%v,%v,%v) = %v, want %v", c.dLo, c.dHi, c.lo, c.hi, got, c.want)
		}
	}
}
