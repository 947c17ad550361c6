// Fast-path pins: the inline dispatch request engine must be
// allocation-free on the estimate round trip, latch dead connections on
// the first write error, hold no reply behind another request, and
// preserve the response→request-id mapping and per-conn ordering
// invariants under deep mixed pipelining — checked over real TCP and
// under -race via `make race-wire` (the TestWire name prefix is what
// that target runs).
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/internal/telemetry"
	"selest/internal/wire"
)

// memConn is a net.Conn stub whose writes land in an in-memory buffer —
// the harness for exercising connWriter and fastPath without a socket.
type memConn struct {
	buf    bytes.Buffer
	closed atomic.Bool
}

func (c *memConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *memConn) Write(b []byte) (int, error)      { return c.buf.Write(b) }
func (c *memConn) Close() error                     { c.closed.Store(true); return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// failConn fails every write, counting attempts that reach the socket.
type failConn struct {
	memConn
	writes atomic.Int64
}

func (c *failConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return 0, errors.New("socket gone")
}

// primedServer returns a Server with acme/price carrying a published
// snapshot fit, so estimates answer from the steady-state rung.
func primedServer(t testing.TB) *Server {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.est.Inserts() < 64 {
		if time.Now().After(deadline) {
			t.Fatal("drainer stuck priming the benchmark attribute")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := s.Estimate(context.Background(), "acme", "price", 0.25, 0.75, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "fresh" && res.Rung != "snapshot" {
		t.Fatalf("priming flush landed on rung %q", res.Rung)
	}
	return s
}

// newMemFastPath builds a fastPath over an in-memory conn.
func newMemFastPath(s *Server) (*fastPath, *memConn, *connWriter) {
	mc := &memConn{}
	cw := &connWriter{bw: bufio.NewWriterSize(mc, 64<<10), c: mc}
	return &fastPath{ws: s.NewWireServer(), cw: cw}, mc, cw
}

// readResponse decodes the single frame the fast path just wrote.
func readResponse(t *testing.T, mc *memConn) wire.Frame {
	t.Helper()
	f, _, err := wire.ReadFrame(bytes.NewReader(mc.buf.Bytes()), wire.MaxPayload, nil)
	if err != nil {
		t.Fatalf("reading fast-path response: %v", err)
	}
	return f
}

// TestWireFastPathEstimateZeroAllocs is the allocation pin: one
// server-side estimate round trip — decode, admit, ladder answer,
// encode, write, flush — allocates nothing once the per-conn scratch is
// warm.
func TestWireFastPathEstimateZeroAllocs(t *testing.T) {
	s := primedServer(t)
	fp, mc, cw := newMemFastPath(s)
	payload := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0.25, Hi: 0.75}.Append(nil)

	if !fp.serve(wire.OpEstimate, 1, payload) {
		t.Fatal("estimate not served inline")
	}
	cw.flush()
	f := readResponse(t, mc)
	if f.Op != wire.OpEstimate|wire.RespFlag || f.ID != 1 {
		t.Fatalf("response frame %v id %d", f.Op, f.ID)
	}
	res, err := wire.DecodeEstimateRes(f.Payload)
	if err != nil || res.Rung != "snapshot" {
		t.Fatalf("inline estimate answered %+v, %v (want snapshot rung)", res, err)
	}

	if a := testing.AllocsPerRun(500, func() {
		mc.buf.Reset()
		if !fp.serve(wire.OpEstimate, 2, payload) {
			t.Fatal("estimate fell off the fast path")
		}
		cw.flush()
	}); a != 0 {
		t.Fatalf("inline estimate round trip allocates %v/op, want 0", a)
	}
}

// TestWireFastPathReservoirRungZeroAllocs pins the reservoir rung — an
// attribute with ingested values but no fit yet — at 0 allocs/op on the
// inline path: the pure-sampling fraction is counted in place under the
// reservoir's lock, never from a copy of the reservoir.
func TestWireFastPathReservoirRungZeroAllocs(t *testing.T) {
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	cfg.ReservoirSize = 4096
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(1000)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 1000)
	fp, mc, cw := newMemFastPath(s)
	payload := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0.25, Hi: 0.75}.Append(nil)

	if !fp.serve(wire.OpEstimate, 1, payload) {
		t.Fatal("estimate not served inline")
	}
	cw.flush()
	res, err := wire.DecodeEstimateRes(readResponse(t, mc).Payload)
	if err != nil || res.Rung != "reservoir" || res.Selectivity != 0.5 {
		t.Fatalf("unfitted attribute answered %+v, %v (want reservoir rung, 500 of 1000)", res, err)
	}

	if a := testing.AllocsPerRun(200, func() {
		mc.buf.Reset()
		if !fp.serve(wire.OpEstimate, 2, payload) {
			t.Fatal("estimate fell off the fast path")
		}
		cw.flush()
	}); a != 0 {
		t.Fatalf("inline reservoir-rung estimate allocates %v/op, want 0", a)
	}
}

func TestWireFastPathPingAndBatchZeroAllocs(t *testing.T) {
	s := primedServer(t)
	fp, mc, cw := newMemFastPath(s)

	ping := wire.PingReq{}.Append(nil)
	queries := make([]wire.Range, 16)
	for i := range queries {
		queries[i] = wire.Range{Lo: 0, Hi: float64(i+1) / 16}
	}
	batch := wire.EstimateBatchReq{Tenant: "acme", Attr: "price", Queries: queries}.Append(nil)

	// Warm every scratch buffer (frame, payload, query slice) once.
	if !fp.serve(wire.OpPing, 1, ping) || !fp.serve(wire.OpEstimateBatch, 2, batch) {
		t.Fatal("ping/batch not served inline")
	}
	cw.flush()

	if a := testing.AllocsPerRun(500, func() {
		mc.buf.Reset()
		if !fp.serve(wire.OpPing, 3, ping) {
			t.Fatal("ping fell off the fast path")
		}
		cw.flush()
	}); a != 0 {
		t.Fatalf("inline ping allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() {
		mc.buf.Reset()
		if !fp.serve(wire.OpEstimateBatch, 4, batch) {
			t.Fatal("batch fell off the fast path")
		}
		cw.flush()
	}); a != 0 {
		t.Fatalf("inline 16-query batch allocates %v/op, want 0", a)
	}
}

// TestWireFastPathDeclines pins the dispatch rules: the reader answers
// every request inline except one that can wait — a fresh read, a
// snapshot fetch, or a batch past inlineBatchMax — which falls through
// to the goroutine path.
func TestWireFastPathDeclines(t *testing.T) {
	s := primedServer(t)
	fp, mc, cw := newMemFastPath(s)

	ingest := wire.IngestReq{Tenant: "acme", Attr: "price", Values: seq(4)}.Append(nil)
	if !fp.serve(wire.OpIngest, 1, ingest) {
		t.Fatal("ingest not served inline")
	}
	create := wire.CreateAttrReq{Tenant: "acme", Attr: "weight", Config: []byte(`{"domain_lo":0,"domain_hi":1}`)}.Append(nil)
	if !fp.serve(wire.OpCreateAttr, 2, create) {
		t.Fatal("create_attr not served inline")
	}
	cw.flush()
	br := bytes.NewReader(mc.buf.Bytes())
	for _, want := range []wire.Op{wire.OpIngest, wire.OpCreateAttr} {
		f, _, err := wire.ReadFrame(br, wire.MaxPayload, nil)
		if err != nil || f.Op != want|wire.RespFlag {
			t.Fatalf("inline %s answered %s, %v", want, f.Op, err)
		}
	}

	fresh := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0, Hi: 1, Fresh: true}.Append(nil)
	if fp.serve(wire.OpEstimate, 3, fresh) {
		t.Fatal("fresh estimate served inline; it may block on a refit flush")
	}
	freshBatch := wire.EstimateBatchReq{Tenant: "acme", Attr: "price", Fresh: true,
		Queries: []wire.Range{{Lo: 0, Hi: 1}}}.Append(nil)
	if fp.serve(wire.OpEstimateBatch, 4, freshBatch) {
		t.Fatal("fresh batch served inline; it may block on a refit flush")
	}
	big := wire.EstimateBatchReq{Tenant: "acme", Attr: "price",
		Queries: make([]wire.Range, inlineBatchMax+1)}.Append(nil)
	if fp.serve(wire.OpEstimateBatch, 5, big) {
		t.Fatal("oversized batch served inline")
	}
	if fp.serve(wire.OpSnapshotFetch, 6, wire.SnapshotFetchReq{}.Append(nil)) {
		t.Fatal("snapshot_fetch served inline")
	}
}

// TestWireConnWriterDeadLatch: the first write error latches the
// connection dead, closes the socket (so the reader loop reaps it), and
// suppresses every subsequent write instead of letting still-pipelined
// goroutines feed a dead socket.
func TestWireConnWriterDeadLatch(t *testing.T) {
	before := telemetry.Default.Snapshot()
	fc := &failConn{}
	// A 16-byte buffer forces write-through on every frame, so the first
	// write hits the socket error immediately.
	cw := &connWriter{bw: bufio.NewWriterSize(fc, 16), c: fc}

	cw.write(wire.AppendFrame(nil, errorFrame(1, ErrDraining, 0)), true)
	if !fc.closed.Load() {
		t.Fatal("write error did not close the conn for the reader to reap")
	}
	attempts := fc.writes.Load()
	if attempts == 0 {
		t.Fatal("no write reached the socket")
	}

	cw.write(wire.AppendFrame(nil, errorFrame(2, ErrDraining, 0)), true)
	cw.write([]byte("frame"), false)
	cw.flush()
	if got := fc.writes.Load(); got != attempts {
		t.Fatalf("dead conn still written to: %d attempts after latch (had %d)", got, attempts)
	}

	after := telemetry.Default.Snapshot()
	name := "selest_server_wire_write_errors_total"
	if after.Counters[name] != before.Counters[name]+1 {
		t.Fatalf("write-error counter moved %d, want exactly 1 (latched)",
			after.Counters[name]-before.Counters[name])
	}
}

// TestWireNoReplyHeldBehindBlockedRequest pins the flush rule: an inline
// reply leaves before the reader waits, whatever else is in flight on
// the connection. The test holds tenant b's lock, so every snapshot
// fetch blocks on the goroutine path; an estimate on tenant a pipelined
// behind the fetches must still arrive at once. With maxConnPipelined
// fetches ahead of it and one more behind, the reader waits for a
// pipelining slot, not for the socket, with the reply buffered.
func TestWireNoReplyHeldBehindBlockedRequest(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after int // blocked fetches sent before and after the estimate
	}{
		{"reader-waits-for-frame", 1, 0},
		{"reader-waits-for-slot", maxConnPipelined, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustServer(t, Options{})
			for _, tenant := range []string{"a", "b"} {
				if err := s.CreateAttr(tenant, "x", testAttrCfg()); err != nil {
					t.Fatal(err)
				}
			}
			_, addr := startWireServer(t, s)
			tn := s.tenantNamed([]byte("b"))
			tn.mu.Lock()
			release := sync.OnceFunc(tn.mu.Unlock)
			defer release()

			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			// One write carries every frame, so the reader finds the
			// frames after the estimate already buffered.
			est := wire.Frame{Op: wire.OpEstimate, Payload: wire.EstimateReq{
				Tenant: "a", Attr: "x", Lo: 0.25, Hi: 0.75}.Append(nil)}
			fetches := map[uint64]bool{}
			var out []byte
			for id := uint64(1); id <= uint64(tc.before+tc.after); id++ {
				fetches[id] = true
				out = wire.AppendFrame(out, wire.Frame{Op: wire.OpSnapshotFetch, ID: id,
					Payload: wire.SnapshotFetchReq{}.Append(nil)})
				if id == uint64(tc.before) {
					out = wire.AppendFrame(out, est)
				}
			}
			if _, err := conn.Write(out); err != nil {
				t.Fatal(err)
			}

			br := bufio.NewReader(conn)
			_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			f, rbuf, err := wire.ReadFrame(br, wire.MaxPayload, nil)
			if err != nil {
				t.Fatalf("estimate reply held while the fetches block: %v", err)
			}
			if f.ID != 0 || f.Op != wire.OpEstimate|wire.RespFlag {
				t.Fatalf("first reply id %d op %s, want the estimate's (id 0) while the fetches block", f.ID, f.Op)
			}

			release()
			_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			for len(fetches) > 0 {
				f, rbuf, err = wire.ReadFrame(br, wire.MaxPayload, rbuf)
				if err != nil {
					t.Fatalf("%d fetch replies missing after release: %v", len(fetches), err)
				}
				if !fetches[f.ID] || f.Op != wire.OpSnapshotFetch|wire.RespFlag {
					t.Fatalf("reply id %d op %s, want one unanswered fetch's", f.ID, f.Op)
				}
				delete(fetches, f.ID)
			}
		})
	}
}

// TestWireHalfCloseGetsEveryReply pins the connection lifetime: a
// connection closes only after every request its reader read has been
// answered. The client pipelines a snapshot fetch, blocked on tenant b's
// lock the test holds, and an estimate, then half-closes its write
// side; the reader sees EOF with the fetch still in flight. The
// estimate's reply arrives at once, and the fetch's after the lock is
// released, before the server's EOF.
func TestWireHalfCloseGetsEveryReply(t *testing.T) {
	s := mustServer(t, Options{})
	for _, tenant := range []string{"a", "b"} {
		if err := s.CreateAttr(tenant, "x", testAttrCfg()); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startWireServer(t, s)
	tn := s.tenantNamed([]byte("b"))
	tn.mu.Lock()
	release := sync.OnceFunc(tn.mu.Unlock)
	defer release()

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := wire.AppendFrame(nil, wire.Frame{Op: wire.OpSnapshotFetch, ID: 1, Payload: wire.SnapshotFetchReq{}.Append(nil)})
	out = wire.AppendFrame(out, wire.Frame{Op: wire.OpEstimate, ID: 2, Payload: wire.EstimateReq{
		Tenant: "a", Attr: "x", Lo: 0.25, Hi: 0.75}.Append(nil)})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, rbuf, err := wire.ReadFrame(br, wire.MaxPayload, nil)
	if err != nil || f.ID != 2 || f.Op != wire.OpEstimate|wire.RespFlag {
		t.Fatalf("first reply id %d op %s, %v: want the estimate's while the fetch blocks", f.ID, f.Op, err)
	}
	release()
	f, rbuf, err = wire.ReadFrame(br, wire.MaxPayload, rbuf)
	if err != nil {
		t.Fatalf("the fetch's reply is lost: %v", err)
	}
	if f.ID != 1 || f.Op != wire.OpSnapshotFetch|wire.RespFlag {
		t.Fatalf("second reply id %d op %s, want the fetch's", f.ID, f.Op)
	}
	if _, _, err = wire.ReadFrame(br, wire.MaxPayload, rbuf); err != io.EOF {
		t.Fatalf("after every reply: %v, want EOF", err)
	}
}

// TestWirePipeliningMixedInlineGoroutine is the -race pipelining pin:
// deep bursts mixing inline ops (estimates, pings, ingests) with the
// goroutine op (fresh estimates) on several concurrent connections. Every
// request id is answered exactly once with its own op; inline responses
// arrive in request order relative to each other (goroutine responses
// may interleave anywhere — the id is the correlation); and no response
// is stranded unflushed, whatever the interleaving of inline writes and
// in-flight goroutines.
func TestWirePipeliningMixedInlineGoroutine(t *testing.T) {
	before := telemetry.Default.Snapshot()
	s := primedServer(t)
	_, addr := startWireServer(t, s)

	const conns = 4
	const bursts = 8
	const burstLen = 48

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for cn := 0; cn < conns; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			errs <- drivePipelinedConn(addr, bursts, burstLen)
		}(cn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after := telemetry.Default.Snapshot()
	counterMoved := func(name string) {
		t.Helper()
		if after.Counters[name] <= before.Counters[name] {
			t.Fatalf("counter %s did not move: %d -> %d",
				name, before.Counters[name], after.Counters[name])
		}
	}
	counterMoved("selest_server_wire_inline_served_total")
	counterMoved("selest_server_wire_flushes_coalesced_total")

	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"selest_server_wire_inline_served_total",
		"selest_server_wire_flushes_coalesced_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
}

// drivePipelinedConn writes bursts of mixed requests in a single
// conn.Write each and verifies the response stream's invariants.
func drivePipelinedConn(addr string, bursts, burstLen int) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)

	const (
		kindEstimate = iota // inline
		kindPing            // inline
		kindIngest          // inline
		kindFresh           // goroutine (fresh estimate)
	)
	var (
		nextID uint64
		out    []byte
		rbuf   []byte
	)
	for b := 0; b < bursts; b++ {
		out = out[:0]
		kinds := map[uint64]int{}
		var inlineOrder []uint64
		for i := 0; i < burstLen; i++ {
			nextID++
			id := nextID
			var kind int
			switch i % 8 {
			case 3:
				kind = kindIngest
			case 5:
				kind = kindFresh
			case 6:
				kind = kindPing
			default:
				kind = kindEstimate
			}
			kinds[id] = kind
			var f wire.Frame
			switch kind {
			case kindEstimate:
				f = wire.Frame{Op: wire.OpEstimate, ID: id, Payload: wire.EstimateReq{
					Tenant: "acme", Attr: "price", Lo: 0.1, Hi: 0.9}.Append(nil)}
			case kindPing:
				f = wire.Frame{Op: wire.OpPing, ID: id, Payload: wire.PingReq{}.Append(nil)}
			case kindIngest:
				f = wire.Frame{Op: wire.OpIngest, ID: id, Payload: wire.IngestReq{
					Tenant: "acme", Attr: "price", Values: []float64{0.5}}.Append(nil)}
			case kindFresh:
				f = wire.Frame{Op: wire.OpEstimate, ID: id, Payload: wire.EstimateReq{
					Tenant: "acme", Attr: "price", Lo: 0.1, Hi: 0.9, Fresh: true}.Append(nil)}
			}
			if kind != kindFresh {
				inlineOrder = append(inlineOrder, id)
			}
			out = wire.AppendFrame(out, f)
		}
		if _, err := conn.Write(out); err != nil {
			return fmt.Errorf("burst %d write: %w", b, err)
		}

		seen := map[uint64]bool{}
		var inlineSeen []uint64
		for len(seen) < burstLen {
			var f wire.Frame
			f, rbuf, err = wire.ReadFrame(br, wire.MaxPayload, rbuf)
			if err != nil {
				return fmt.Errorf("burst %d after %d responses: %w", b, len(seen), err)
			}
			kind, ok := kinds[f.ID]
			if !ok {
				return fmt.Errorf("burst %d: response for unknown id %d", b, f.ID)
			}
			if seen[f.ID] {
				return fmt.Errorf("burst %d: id %d answered twice", b, f.ID)
			}
			seen[f.ID] = true
			var wantOp wire.Op
			switch kind {
			case kindEstimate, kindFresh:
				wantOp = wire.OpEstimate | wire.RespFlag
			case kindPing:
				wantOp = wire.OpPing | wire.RespFlag
			case kindIngest:
				wantOp = wire.OpIngest | wire.RespFlag
			}
			if f.Op != wantOp {
				return fmt.Errorf("burst %d id %d: op %s, want %s", b, f.ID, f.Op, wantOp)
			}
			if kind != kindFresh {
				inlineSeen = append(inlineSeen, f.ID)
			}
			if kind == kindEstimate {
				res, derr := wire.DecodeEstimateRes(f.Payload)
				if derr != nil || res.Rung != "snapshot" {
					return fmt.Errorf("burst %d id %d: inline estimate %+v, %v", b, f.ID, res, derr)
				}
			}
		}
		// Inline responses are written by the one reader goroutine, so
		// their relative order is the request order.
		if len(inlineSeen) != len(inlineOrder) {
			return fmt.Errorf("burst %d: %d inline responses, want %d", b, len(inlineSeen), len(inlineOrder))
		}
		for i := range inlineOrder {
			if inlineSeen[i] != inlineOrder[i] {
				return fmt.Errorf("burst %d: inline response order %v, want %v", b, inlineSeen, inlineOrder)
			}
		}
	}
	return nil
}
