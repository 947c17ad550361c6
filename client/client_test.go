package client_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/client"
	"selest/internal/server"
	"selest/internal/telemetry"
	"selest/internal/wire"
)

// testService boots one in-process server behind a wire listener and
// returns a client factory.
type testService struct {
	srv  *server.Server
	addr string
	ws   *server.WireServer
}

func startService(t *testing.T, opts server.Options) *testService {
	t.Helper()
	srv, err := server.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := srv.NewWireServer()
	go func() { _ = ws.Serve(ln) }()
	ts := &testService{srv: srv, addr: ln.Addr().String(), ws: ws}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ts.ws.Shutdown(ctx)
		_ = ts.srv.Close(ctx, "")
	})
	return ts
}

func (ts *testService) client(t *testing.T, mutate ...func(*client.Options)) *client.Client {
	t.Helper()
	opts := client.Options{Addr: ts.addr, HealthCheckEvery: -1}
	for _, m := range mutate {
		m(&opts)
	}
	c, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func testCfg() client.AttrConfig {
	return client.AttrConfig{DomainLo: 0, DomainHi: 1, ReservoirSize: 64, RefitEvery: 64, Seed: 7}
}

// TestClientParity runs the full API surface through the client and
// pins its results and typed errors. That HTTP, the wire inline path
// and the wire goroutine path answer alike is TestWireTransportParity's
// pin, in internal/server.
func TestClientParity(t *testing.T) {
	ts := startService(t, server.Options{})
	ctx := context.Background()

	t.Run("wire", func(t *testing.T) {
		c := ts.client(t)
		tenant := "acme"

		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping: %v", err)
		}
		if err := c.CreateAttr(ctx, tenant, "price", testCfg()); err != nil {
			t.Fatalf("create: %v", err)
		}
		// Idempotent re-create succeeds; a different config conflicts.
		if err := c.CreateAttr(ctx, tenant, "price", testCfg()); err != nil {
			t.Fatalf("re-create: %v", err)
		}
		other := testCfg()
		other.DomainHi = 2
		if err := c.CreateAttr(ctx, tenant, "price", other); !errors.Is(err, client.ErrConflict) {
			t.Fatalf("conflict: got %v", err)
		}

		vals := make([]float64, 256)
		for i := range vals {
			vals[i] = (float64(i) + 0.5) / 256
		}
		inserted := insertedSince()
		ing, err := c.Ingest(ctx, tenant, "price", vals)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if ing.Queued != 256 || ing.Shed != 0 {
			t.Fatalf("ingest result: %+v", ing)
		}

		// fresh refits from what the attribute's drainer has already
		// inserted, so wait for the whole batch: then the answer is
		// deterministic.
		waitFor(t, "the ingest to drain", func() bool { return inserted() >= 256 })
		res, err := c.Estimate(ctx, tenant, "price", 0.25, 0.75, client.WithFresh())
		if err != nil {
			t.Fatalf("estimate: %v", err)
		}
		if res.Selectivity <= 0 || res.Selectivity > 1 || res.Rung == "" {
			t.Fatalf("estimate result: %+v", res)
		}

		batch, err := c.EstimateBatch(ctx, tenant, "price", []client.Range{{Lo: 0, Hi: 0.5}, {Lo: 0.5, Hi: 1}})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if len(batch) != 2 {
			t.Fatalf("batch results: %+v", batch)
		}

		// Typed errors: unknown attribute, malformed range.
		if _, err := c.Estimate(ctx, tenant, "nope", 0, 1); !errors.Is(err, client.ErrNotFound) {
			t.Fatalf("not found: got %v", err)
		}
		var ae *client.APIError
		if _, err := c.Estimate(ctx, tenant, "nope", 0, 1); !errors.As(err, &ae) || ae.Code != client.CodeNotFound {
			t.Fatalf("not found APIError: got %v", err)
		}
		if _, err := c.Estimate(ctx, tenant, "price", 0.9, 0.1); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("bad range: got %v", err)
		}
		if _, err := c.Ingest(ctx, tenant, "price", nil); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("empty ingest: got %v", err)
		}
	})
}

// TestClientOverQuota pins the throttle path: the refusal is
// ErrOverQuota, the APIError carries the server's hint, and
// WithMaxRetries(0) surfaces it without burning the retry budget.
func TestClientOverQuota(t *testing.T) {
	ts := startService(t, server.Options{QuotaRate: 0.001, QuotaBurst: 1})
	ctx := context.Background()
	t.Run("wire", func(t *testing.T) {
		c := ts.client(t)
		tenant := "quota"
		// Creating the tenant is admitted free (the tenant does not
		// exist yet); the burst of 1 is then spent by one estimate and
		// the next call must be refused with a hint.
		if err := c.CreateAttr(ctx, tenant, "a", testCfg(), client.WithMaxRetries(0)); err != nil {
			t.Fatalf("create: %v", err)
		}
		_, _ = c.Estimate(ctx, tenant, "a", 0, 1, client.WithMaxRetries(0))
		var ae *client.APIError
		_, err := c.Estimate(ctx, tenant, "a", 0, 1, client.WithMaxRetries(0))
		if !errors.Is(err, client.ErrOverQuota) {
			t.Fatalf("over quota: got %v", err)
		}
		if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
			t.Fatalf("expected retry-after hint, got %v", err)
		}
	})
}

// TestClientRetriesDraining pins the bounded retry loop: a draining
// server is a retryable refusal, so a capped retry budget is spent and
// the typed error still comes back.
func TestClientRetriesDraining(t *testing.T) {
	ts := startService(t, server.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer closeCancel()
	_ = ts.srv.Close(closeCtx, "")

	t.Run("wire", func(t *testing.T) {
		c := ts.client(t, func(o *client.Options) {
			o.MaxRetries = 2
			o.RetryBaseDelay = time.Millisecond
			o.RetryMaxDelay = 2 * time.Millisecond
		})
		before := c.Stats()
		_, err := c.Estimate(ctx, "t", "a", 0, 1)
		if !errors.Is(err, client.ErrDraining) {
			t.Fatalf("draining: got %v", err)
		}
		after := c.Stats()
		if got := after.Retries - before.Retries; got != 2 {
			t.Fatalf("retries spent: got %d want 2", got)
		}
	})
}

// TestClientPipelining drives many concurrent calls through a 1-conn
// wire pool: every call multiplexes onto the same socket and every
// response finds its caller by request id.
func TestClientPipelining(t *testing.T) {
	ts := startService(t, server.Options{})
	ctx := context.Background()
	c := ts.client(t, func(o *client.Options) { o.Conns = 1 })
	if err := c.CreateAttr(ctx, "t", "a", testCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "t", "a", []float64{0.1, 0.5, 0.9}); err != nil {
		t.Fatal(err)
	}

	const workers, calls = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := c.Estimate(ctx, "t", "a", 0.2, 0.8); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials: got %d want 1 (pipelined pool)", d)
	}
}

// TestClientRedialsDeadConn kills the server side of a live connection
// and pins that the retry loop dials a fresh one instead of failing the
// caller.
func TestClientRedialsDeadConn(t *testing.T) {
	ts := startService(t, server.Options{})
	ctx := context.Background()
	c := ts.client(t, func(o *client.Options) {
		o.Conns = 1
		o.RetryBaseDelay = time.Millisecond
	})
	if err := c.CreateAttr(ctx, "t", "a", testCfg()); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials before: %d", d)
	}
	// Tear down every server-side connection; the client's next call
	// sees a broken socket, retries, and redials.
	ts.ws.CloseConns()
	if _, err := c.Estimate(ctx, "t", "a", 0, 1); err != nil {
		t.Fatalf("estimate after conn kill: %v", err)
	}
	if d := c.Stats().Dials; d != 2 {
		t.Fatalf("dials after: got %d want 2", d)
	}
}

// TestClientHealthCheck pins the background checker against a peer that
// goes silent without closing the socket — the one failure mode the
// read loop cannot see. The checker's ping must time out, tear the
// connection down, and let the next call dial fresh.
func TestClientHealthCheck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var pings atomic.Int64
	var respond atomic.Bool
	respond.Store(true)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var buf []byte
				for {
					var f wire.Frame
					f, buf, err = wire.ReadFrame(c, wire.MaxPayload, buf)
					if err != nil {
						return
					}
					if f.Op == wire.OpPing {
						pings.Add(1)
						if respond.Load() {
							_, _ = c.Write(wire.AppendFrame(nil, wire.Frame{Op: f.Op | wire.RespFlag, ID: f.ID}))
						}
					}
				}
			}(c)
		}
	}()

	ctx := context.Background()
	c, err := client.New(client.Options{
		Addr:             ln.Addr().String(),
		Conns:            1,
		HealthCheckEvery: 20 * time.Millisecond,
		DialTimeout:      100 * time.Millisecond,
		RequestTimeout:   100 * time.Millisecond,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	// The checker pings the idle connection on its own cadence.
	waitFor(t, "background pings", func() bool { return pings.Load() >= 3 })

	// Peer goes silent: the checker's ping times out, the connection is
	// torn down, and the next call succeeds over a fresh dial.
	respond.Store(false)
	unanswered := pings.Load()
	waitFor(t, "an unanswered health ping", func() bool { return pings.Load() > unanswered })
	respond.Store(true)
	waitFor(t, "redial after silent peer", func() bool {
		return c.Ping(ctx) == nil && c.Stats().Dials >= 2
	})
}

// insertedSince returns a func reporting how many values the in-process
// servers' drainers have inserted into reservoirs since the call — the
// condition a fresh estimate must wait on, because it refits only from
// values already drained (Server.Estimate).
func insertedSince() func() int64 {
	inserts := telemetry.Default.Counter("selest_online_inserts_total")
	base := inserts.Value()
	return func() int64 { return inserts.Value() - base }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientOptionValidation pins typed construction failures.
func TestClientOptionValidation(t *testing.T) {
	if _, err := client.New(client.Options{}); err == nil {
		t.Fatal("missing Addr accepted")
	}
	if _, err := client.New(client.Options{Addr: "x", Conns: -1}); err == nil {
		t.Fatal("negative Conns accepted")
	}
}
