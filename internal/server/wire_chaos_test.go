// The wire-transport chaos suite: the binary listener under the same
// deliberate failures the HTTP chaos suite pins — panicking refits,
// shutdown under load, throttled tenants, injected handler panics, and
// raw protocol garbage — driven through the real client package over
// real TCP, under -race via `make race-wire`.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/client"
	"selest/internal/faultinject"
	"selest/internal/telemetry"
	"selest/internal/wire"
)

// startWireServer boots the binary listener on an ephemeral port and
// tears it down with the test.
func startWireServer(t *testing.T, s *Server) (*WireServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := s.NewWireServer()
	go func() { _ = ws.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
	})
	return ws, ln.Addr().String()
}

// wireClient builds a native client against addr with retries disabled
// (chaos pins want to see every failure, not have it absorbed).
func wireClient(t *testing.T, addr string, mutate ...func(*client.Options)) *client.Client {
	t.Helper()
	opts := client.Options{Addr: addr, MaxRetries: -1, HealthCheckEvery: -1}
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

// TestWireChaosRefitPanicSoak is the refit-panic soak through the binary
// listener: pipelined mixed load runs over real TCP while the primary
// builder panics. The pins are the HTTP soak's: the rung descends,
// recovers once the fault clears, and not one query errors — panics
// degrade estimate quality, never availability, on this transport too.
func TestWireChaosRefitPanicSoak(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWireServer(t, s)
	c := wireClient(t, addr)
	ctx := context.Background()

	// Prime a healthy fit so the soak starts at rung 0 with a snapshot.
	if _, err := c.Ingest(ctx, "acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 64)
	if _, err := c.Estimate(ctx, "acme", "price", 0, 1, client.WithFresh()); err != nil {
		t.Fatal(err)
	}
	if a.est.DegradationLevel() != 0 {
		t.Fatalf("soak must start on the primary rung, at %d", a.est.DegradationLevel())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, queryErrs atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := float64(i%10) / 20
				var err error
				if i%4 == 0 {
					_, err = c.Estimate(ctx, "acme", "price", lo, lo+0.5, client.WithFresh())
				} else {
					_, err = c.Estimate(ctx, "acme", "price", lo, lo+0.5)
				}
				if err != nil {
					queryErrs.Add(1)
					t.Errorf("wire query errored during chaos: %v", err)
				}
				queries.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := seq(64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Ingest(ctx, "acme", "price", batch); err != nil {
				t.Errorf("wire ingest errored during chaos: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	faultinject.EnablePanic(FaultRefitPrimary, "chaos: primary refit panic")
	waitCond(t, "builder rung to descend", 15*time.Second, func() bool {
		return a.est.DegradationLevel() >= 1
	})
	faultinject.Disable(FaultRefitPrimary)
	waitCond(t, "builder rung to recover", 15*time.Second, func() bool {
		return a.est.DegradationLevel() == 0
	})

	close(stop)
	wg.Wait()
	if queryErrs.Load() != 0 {
		t.Fatalf("%d of %d wire queries errored; the ladder must absorb refit panics", queryErrs.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("soak ran no queries")
	}
}

// TestWireChaosShutdownConservation pins the conservation law under the
// binary listener: every value accepted over the wire before and during
// Close either reaches its reservoir engine or was shed with the shed
// reported in the response — inserted == accepted − shed exactly. During
// the drain, refusals are typed ErrDraining frames, never dropped
// connections.
func TestWireChaosShutdownConservation(t *testing.T) {
	s := mustServer(t, Options{QueueCap: 1 << 16})
	for _, attr := range []string{"price", "weight"} {
		if err := s.CreateAttr("acme", attr, testAttrCfg()); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startWireServer(t, s)
	c := wireClient(t, addr)
	ctx := context.Background()

	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			attr := "price"
			if w%2 == 1 {
				attr = "weight"
			}
			batch := seq(32)
			<-start
			for {
				res, err := c.Ingest(ctx, "acme", attr, batch)
				if err != nil {
					if errors.Is(err, client.ErrDraining) {
						return
					}
					t.Errorf("wire ingest: %v", err)
					return
				}
				accepted.Add(int64(res.Queued))
				shed.Add(int64(res.Shed))
			}
		}(w)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let load build up
	ctxClose, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctxClose, ""); err != nil {
		t.Fatalf("graceful shutdown under wire load: %v", err)
	}
	wg.Wait()

	var inserted int64
	for _, name := range []string{"price", "weight"} {
		a, err := s.attr("acme", name)
		if err != nil {
			t.Fatal(err)
		}
		inserted += int64(a.est.Inserts())
	}
	if inserted != accepted.Load()-shed.Load() {
		t.Fatalf("wire shutdown dropped accepted values untracked: %d accepted, %d shed, %d reached the reservoir (want accepted-shed)",
			accepted.Load(), shed.Load(), inserted)
	}
}

// pipeline keeps up to window requests in flight on a raw connection,
// hands every reply to onReply, and closes the connection once the
// server has closed its side. It returns nil on the server's clean EOF
// and the first other error otherwise.
func pipeline(conn net.Conn, window int, req func(id uint64) wire.Frame, onReply func(wire.Frame) error) error {
	slots := make(chan struct{}, window)
	stop := make(chan struct{})
	written := make(chan struct{})
	go func() {
		defer close(written)
		var out []byte
		for id := uint64(1); ; id++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			out = wire.AppendFrame(out[:0], req(id))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		conn.Close()
		<-written
	}()
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		var f wire.Frame
		var err error
		f, buf, err = wire.ReadFrame(br, wire.MaxPayload, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := onReply(f); err != nil {
			return err
		}
		<-slots
	}
}

// allAtLeast reports whether every count has reached n.
func allAtLeast(counts []atomic.Int64, n int64) bool {
	for i := range counts {
		if counts[i].Load() < n {
			return false
		}
	}
	return true
}

// TestWireShutdownUnderPipelinedFreshReads pins that Shutdown stops the
// readers instead of counting requests: with four connections keeping
// fresh reads in flight, which take the goroutine path, it returns nil
// long before its context expires, and every connection ends with the
// server's clean EOF.
func TestWireShutdownUnderPipelinedFreshReads(t *testing.T) {
	const n = 1 << 16
	s := mustServer(t, Options{MaxBatch: n, QueueCap: n})
	cfg := testAttrCfg()
	cfg.ReservoirSize, cfg.RefitEvery = n, -1
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	// Every fresh read refits all of these, so the reads queue up on the
	// attribute's one refit slot and some are always in flight.
	if _, err := s.Ingest("acme", "price", seq(n)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", n)
	ws, addr := startWireServer(t, s)
	fresh := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0.1, Hi: 0.9, Fresh: true}.Append(nil)

	const conns = 4
	var replies [conns]atomic.Int64
	errs := make(chan error, conns)
	for i := range replies {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		go func() {
			errs <- pipeline(conn, 16, func(id uint64) wire.Frame {
				return wire.Frame{Op: wire.OpEstimate, ID: id, Payload: fresh}
			}, func(f wire.Frame) error {
				if f.Op != wire.OpEstimate|wire.RespFlag {
					return fmt.Errorf("fresh read answered %s", f.Op)
				}
				replies[i].Add(1)
				return nil
			})
		}()
	}
	waitCond(t, "fresh reads to flow on every connection", 10*time.Second, func() bool {
		return allAtLeast(replies[:], 16)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under pipelined fresh reads: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v, want under 2s", took)
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Errorf("connection %d: %v", i, err)
		}
	}
}

// TestWireShutdownAcknowledgesEveryAcceptedValue pins the conservation
// law across a mid-stream Shutdown, on raw connections that read every
// reply the server sends: the values the server accepted equal the
// values its replies told the clients were queued, minus those shed. A
// reply lost to a connection reset, or an ingest accepted after its
// connection closed, breaks the equality.
func TestWireShutdownAcknowledgesEveryAcceptedValue(t *testing.T) {
	ingest := wire.IngestReq{Tenant: "acme", Attr: "price", Values: []float64{0.25, 0.75}}.Append(nil)
	for round := 0; round < 20; round++ {
		s := mustServer(t, Options{QueueCap: 1 << 20})
		if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
			t.Fatal(err)
		}
		ws, addr := startWireServer(t, s)

		const conns = 4
		var queued, shed atomic.Int64
		var replies [conns]atomic.Int64
		errs := make(chan error, conns)
		for i := range replies {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			go func() {
				errs <- pipeline(conn, 64, func(id uint64) wire.Frame {
					return wire.Frame{Op: wire.OpIngest, ID: id, Payload: ingest}
				}, func(f wire.Frame) error {
					if f.Op != wire.OpIngest|wire.RespFlag {
						return fmt.Errorf("ingest answered %s", f.Op)
					}
					res, err := wire.DecodeIngestRes(f.Payload)
					if err != nil {
						return err
					}
					queued.Add(int64(res.Queued))
					shed.Add(int64(res.Shed))
					replies[i].Add(1)
					return nil
				})
			}()
		}
		// Every connection is past accept: one still in the listener's
		// backlog is reset when Shutdown closes the listener.
		waitCond(t, "ingests to flow on every connection", 10*time.Second, func() bool {
			return allAtLeast(replies[:], 64)
		})

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := ws.Shutdown(ctx); err != nil {
			cancel()
			t.Fatalf("round %d: shutdown mid-stream: %v", round, err)
		}
		for i := 0; i < conns; i++ {
			if err := <-errs; err != nil {
				t.Errorf("round %d connection %d: %v", round, i, err)
			}
		}
		if err := s.Close(ctx, ""); err != nil {
			cancel()
			t.Fatalf("round %d: drain: %v", round, err)
		}
		cancel()
		a, err := s.attr("acme", "price")
		if err != nil {
			t.Fatal(err)
		}
		if inserted := int64(a.est.Inserts()); inserted != queued.Load()-shed.Load() {
			t.Fatalf("round %d: %d values reached the reservoir, but replies acknowledged %d queued and %d shed",
				round, inserted, queued.Load(), shed.Load())
		}
	}
}

// TestWireChaosSlowTenantIsolation pins admission isolation over the
// wire: a tenant exhausting its quota gets typed ErrOverQuota frames
// carrying a usable retry hint while another tenant keeps its full
// budget — on the same listener, over concurrently-open connections.
func TestWireChaosSlowTenantIsolation(t *testing.T) {
	s := mustServer(t, Options{QuotaRate: 1, QuotaBurst: 5})
	for _, tn := range []string{"slow", "fast"} {
		if err := s.CreateAttr(tn, "price", testAttrCfg()); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startWireServer(t, s)
	c := wireClient(t, addr)
	ctx := context.Background()

	// The slow tenant hammers: burst of 5 admitted, everything after a
	// typed over-quota frame with a retry hint.
	var rejected int
	for i := 0; i < 50; i++ {
		_, err := c.Estimate(ctx, "slow", "price", 0.1, 0.9)
		switch {
		case err == nil:
		case errors.Is(err, client.ErrOverQuota):
			rejected++
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
				t.Fatalf("over-quota frame without a usable retry hint: %v", err)
			}
		default:
			t.Fatalf("slow tenant got %v", err)
		}
	}
	if rejected < 40 {
		t.Fatalf("slow tenant was rejected only %d of 50 times at burst 5", rejected)
	}
	// The fast tenant's bucket is untouched: its full burst still admits.
	for i := 0; i < 5; i++ {
		if _, err := c.Estimate(ctx, "fast", "price", 0.1, 0.9); err != nil {
			t.Fatalf("fast tenant degraded by slow tenant: %v on request %d", err, i+1)
		}
	}
}

// TestWireChaosPanicContainment pins per-request panic containment on
// the binary listener: an injected handler panic becomes a typed
// internal-error frame on that request alone — the connection survives
// and the next request on it succeeds.
func TestWireChaosPanicContainment(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	_, addr := startWireServer(t, s)
	c := wireClient(t, addr, func(o *client.Options) { o.Conns = 1 })
	ctx := context.Background()

	if _, err := c.Estimate(ctx, "acme", "price", 0.1, 0.9); err != nil {
		t.Fatal(err)
	}
	panicsBefore := telemetry.Default.Snapshot().Counters["selest_server_panics_total"]

	faultinject.EnablePanic(FaultHandler, "chaos: wire handler panic")
	_, err := c.Estimate(ctx, "acme", "price", 0.1, 0.9)
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("panicked request: got %v, want typed ErrInternal", err)
	}
	faultinject.Disable(FaultHandler)

	// Same connection, next request: the panic was contained to one frame.
	if _, err := c.Estimate(ctx, "acme", "price", 0.1, 0.9); err != nil {
		t.Fatalf("request after contained panic: %v", err)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("connection was dropped by a contained panic: %d dials", d)
	}
	if after := telemetry.Default.Snapshot().Counters["selest_server_panics_total"]; after <= panicsBefore {
		t.Fatalf("panic counter did not move: %v -> %v", panicsBefore, after)
	}
}

// TestWireChaosProtocolGarbage pins the corrupt-stream posture with raw
// sockets: garbage bytes, an unknown opcode, and an oversized length
// each get one typed error frame (or a summary hang-up) and the
// connection is closed — while the listener keeps serving well-behaved
// connections untouched.
func TestWireChaosProtocolGarbage(t *testing.T) {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	_, addr := startWireServer(t, s)
	good := wireClient(t, addr)
	ctx := context.Background()

	send := func(t *testing.T, raw []byte, hangup bool) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server answers with at most one error frame; on a stream
		// fault (hangup=true) it then closes the connection.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		fr, _, err := wire.ReadFrame(conn, wire.MaxPayload, nil)
		if err == nil {
			if fr.Op != wire.OpError {
				t.Fatalf("garbage answered with op %s, want error frame", fr.Op)
			}
			er, derr := wire.DecodeErrorRes(fr.Payload)
			if derr != nil {
				t.Fatalf("undecodable error frame: %v", derr)
			}
			if er.Code == 0 {
				t.Fatal("error frame with code 0 (ok)")
			}
			if hangup {
				if _, _, err := wire.ReadFrame(conn, wire.MaxPayload, nil); err == nil {
					t.Fatal("connection stayed open after protocol error")
				}
			}
		} else if !hangup {
			t.Fatalf("per-request fault got no error frame: %v", err)
		}
	}

	t.Run("garbage bytes", func(t *testing.T) {
		send(t, []byte("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"), true)
	})
	t.Run("unknown opcode", func(t *testing.T) {
		send(t, wire.AppendFrame(nil, wire.Frame{Op: 0x7E, ID: 9}), true)
	})
	t.Run("oversized length", func(t *testing.T) {
		raw := wire.AppendFrame(nil, wire.Frame{Op: wire.OpPing, ID: 1})
		// Inflate the length field past the server's bound; the CRC no
		// longer matters because the length check fires first.
		raw[12], raw[13], raw[14], raw[15] = 0xFF, 0xFF, 0xFF, 0xFF
		send(t, raw, true)
	})
	t.Run("corrupt crc", func(t *testing.T) {
		raw := wire.AppendFrame(nil, wire.Frame{Op: wire.OpPing, ID: 1, Payload: wire.PingReq{}.Append(nil)})
		raw[len(raw)-1] ^= 0xFF
		send(t, raw, true)
	})
	t.Run("malformed payload", func(t *testing.T) {
		// Well-framed estimate whose payload is junk: a typed
		// bad-request frame, but the stream is still healthy, so the
		// connection stays open for the next request.
		send(t, wire.AppendFrame(nil, wire.Frame{Op: wire.OpEstimate, ID: 3, Payload: []byte{0xFF, 0xFF}}), false)
	})

	// Throughout all of it, a well-behaved client on the same listener
	// never noticed.
	if _, err := good.Estimate(ctx, "acme", "price", 0.1, 0.9); err != nil {
		t.Fatalf("well-behaved connection disturbed by garbage peers: %v", err)
	}
}
