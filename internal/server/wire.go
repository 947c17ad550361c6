// The selestwire binary transport: a TCP listener speaking the
// length-prefixed, CRC-framed, request-id-pipelined protocol from
// internal/wire, over the same request core as the HTTP/JSON transport
// (core.go) — same drain gate, shape check, admission order, deadline,
// degradation ladder, panic containment and errcode registry. Only the
// envelope differs: a binary frame instead of an HTTP response.
//
// Concurrency model (DESIGN.md §16): one reader goroutine per
// connection owns every request it reads, and the connection closes
// only after all of them have been answered. The reader decodes each
// frame once and answers it *inline*, with every buffer reused across
// frames, so the steady-state estimate round trip spawns no goroutine,
// copies no payload, and allocates nothing. Only a request that can
// wait runs on a goroutine of its own (bounded per connection): a fresh
// estimate, which may wait on a refit; a snapshot fetch, which walks the
// whole service; and a batch past inlineBatchMax, which would hold up
// the frames behind it. Responses are written under a per-connection
// mutex and may interleave in any order — the request id is the
// correlation, exactly as DESIGN.md §13 specifies. One flush rule covers
// them all: the reader flushes every buffered reply before it waits, for
// the next frame or for a pipelining slot, so a burst of K pipelined
// requests is answered with one write syscall and no reply waits behind
// another request; a goroutine's reply flushes at once.
//
// Failure posture mirrors the HTTP transport: a malformed payload inside
// a well-framed request is a typed error response on that request alone;
// a framing error (bad magic, CRC mismatch, oversized length) is
// unrecoverable — the server sends a final error frame and hangs up,
// because a corrupt stream cannot be re-synchronised.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selest/internal/errcode"
	"selest/internal/wire"
)

// maxConnPipelined bounds the requests in flight on one connection; a
// client pipelining deeper than this blocks in the reader until a slot
// frees, which backpressures the TCP window instead of growing
// goroutines without bound.
const maxConnPipelined = 128

// lingerMax bounds how long closeConn discards what a peer still sends.
const lingerMax = time.Second

// WireServer serves the binary protocol over a Server. Create one with
// Server.NewWireServer, hand it listeners via Serve, and stop it with
// Shutdown (the wire twin of http.Server.Shutdown).
type WireServer struct {
	s *Server

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	readers sync.WaitGroup // one per registered connection's reader
	closing atomic.Bool
}

// NewWireServer returns a wire-protocol front over s.
func (s *Server) NewWireServer() *WireServer {
	return &WireServer{
		s:     s,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until the listener closes (usually via
// Shutdown). It returns nil after a Shutdown-initiated close and the
// accept error otherwise.
func (ws *WireServer) Serve(ln net.Listener) error {
	ws.mu.Lock()
	if ws.closing.Load() {
		ws.mu.Unlock()
		ln.Close()
		return errors.New("server: wire listener after shutdown")
	}
	ws.lns[ln] = struct{}{}
	ws.mu.Unlock()
	defer func() {
		ws.mu.Lock()
		delete(ws.lns, ln)
		ws.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			if ws.closing.Load() {
				return nil
			}
			return err
		}
		if !ws.register(c) {
			c.Close()
			return nil
		}
		go ws.serveConn(c)
	}
}

// register admits c to the connection map, the readers Shutdown waits
// for, and the gauge, unless Shutdown has begun.
func (ws *WireServer) register(c net.Conn) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closing.Load() {
		return false
	}
	ws.conns[c] = struct{}{}
	ws.readers.Add(1)
	srvWireConns.Set(float64(len(ws.conns)))
	return true
}

// Shutdown stops the wire transport gracefully: it closes every
// listener, then stops every reader between frames. A reader answers
// what it has read, the frames it has buffered included, and closes its
// connection; frames unread when Shutdown starts are not read. Shutdown
// waits for the readers, bounded by ctx, and closes whatever is left.
func (ws *WireServer) Shutdown(ctx context.Context) error {
	ws.mu.Lock()
	ws.closing.Store(true)
	for ln := range ws.lns {
		ln.Close()
	}
	for c := range ws.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	ws.mu.Unlock()

	done := make(chan struct{})
	go func() {
		ws.readers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ws.CloseConns()
		return fmt.Errorf("server: wire shutdown abandoned open connections: %w", ctx.Err())
	}
}

// CloseConns forcibly closes every live connection without touching the
// listeners — a dead-peer hook for tests and operators: clients must
// detect the broken socket and redial.
func (ws *WireServer) CloseConns() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for c := range ws.conns {
		c.Close()
	}
}

// connWriter serialises response frames from the reader goroutine's
// inline fast path and concurrent request goroutines onto one
// connection. It decides no flush itself: each caller says whether its
// frame flushes (DESIGN.md §16).
type connWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  net.Conn

	// dead latches on the first write or flush error: the socket is
	// closed so the reader loop reaps the connection promptly, and every
	// subsequent write is skipped instead of feeding a dead socket from
	// still-pipelined goroutines.
	dead bool
}

// write buffers one encoded frame and, when flush is set, pushes every
// buffered frame to the socket.
func (cw *connWriter) write(b []byte, flush bool) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return
	}
	_, err := cw.bw.Write(b)
	if err == nil && flush {
		err = cw.bw.Flush()
	}
	if err != nil {
		// A write error leaves the connection for the reader loop to
		// reap; there is no one to report it to but telemetry.
		cw.dead = true
		srvWireWriteErrors.Inc()
		_ = cw.c.Close()
	}
}

// flush pushes every buffered frame to the socket.
func (cw *connWriter) flush() { cw.write(nil, true) }

// serveConn is c's reader. A goroutine-path request holds one of c's
// pipelining slots until its reply is written, and the teardown takes
// every slot before it closes c, however the reader stopped.
func (ws *WireServer) serveConn(c net.Conn) {
	cw := &connWriter{bw: bufio.NewWriterSize(c, 64<<10), c: c}
	sem := make(chan struct{}, maxConnPipelined)
	defer func() {
		cw.flush()
		for range maxConnPipelined {
			sem <- struct{}{}
		}
		closeConn(c)
		ws.mu.Lock()
		delete(ws.conns, c)
		srvWireConns.Set(float64(len(ws.conns)))
		ws.mu.Unlock()
		ws.readers.Done()
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	fp := &fastPath{ws: ws, cw: cw}
	var buf []byte
	for {
		// The flush rule: the reader flushes before it waits — here for
		// the next frame, below for a pipelining slot, and in the
		// teardown for its goroutines — so the inline replies to a
		// pipelined burst leave in one write, and none waits behind a
		// request still being served.
		if br.Buffered() == 0 {
			cw.flush()
		}
		var f wire.Frame
		var err error
		f, buf, err = wire.ReadFrame(br, wire.MaxPayload, buf)
		if err != nil {
			if errors.Is(err, wire.ErrProtocol) {
				// The stream is corrupt: answer once (id 0 — after a
				// framing error no id is trustworthy) and hang up.
				srvWireProtoErrors.Inc()
				cw.write(wire.AppendFrame(nil, errorFrame(0, fmt.Errorf("%w: %v", ErrBadValue, err), 0)), false)
			} else if err != io.EOF && !errors.Is(err, net.ErrClosed) && !ws.closing.Load() {
				srvWireReadErrors.Inc() // Shutdown's read deadline is no failure
			}
			return
		}
		if !f.Op.IsRequest() {
			srvWireProtoErrors.Inc()
			cw.write(wire.AppendFrame(nil, errorFrame(f.ID, fmt.Errorf("%w: %v", ErrBadValue, wire.ErrUnknownOp), 0)), false)
			return
		}
		if fp.serve(f.Op, f.ID, f.Payload) {
			if br.Buffered() > 0 {
				srvWireFlushesCoalesced.Inc()
			}
			continue
		}
		// A request that can wait gets its own goroutine and slot, with
		// its own copy of what the call borrows from the read buffer.
		id, req, start := f.ID, fp.c.own(), fp.start
		select {
		case sem <- struct{}{}:
		default:
			cw.flush()
			sem <- struct{}{}
		}
		go func() {
			defer func() { <-sem }()
			ws.respond(cw, id, req, start)
		}()
	}
}

// closeConn closes c without a reset, which would make the peer's kernel
// drop replies already sent: it half-closes c, then discards what the
// peer still sends until the peer closes too or lingerMax passes.
func closeConn(c net.Conn) {
	if hc, ok := c.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		_ = c.SetReadDeadline(time.Now().Add(lingerMax))
		_, _ = io.Copy(io.Discard, c)
	}
	_ = c.Close()
}

// inlineBatchMax bounds the estimate_batch size served inline on the
// reader goroutine: past it, the time spent answering under the ladder
// would head-of-line-delay pipelined frames enough to matter, so larger
// batches take the goroutine path.
const inlineBatchMax = 64

// fastPath is the reader goroutine's per-connection dispatcher. Every
// frame is decoded once, here, with the view decoders. Every request
// that cannot wait then runs through the request core and is encoded on
// the reader goroutine itself, with every buffer reused across frames:
// no goroutine handoff, no payload copy (the frame is consumed before
// the next ReadFrame reuses its buffer), no context, and no
// per-response allocation, so the steady-state estimate round trip is
// zero allocations server-side. A fresh estimate may flush a refit —
// that can block for a build — so the fresh bit sends a request to the
// goroutine path no matter how cheap it looks.
type fastPath struct {
	ws *WireServer
	cw *connWriter

	c     call      // the frame being served
	rep   reply     // its answer, with batch scratch reused across frames
	start time.Time // when the frame was decoded

	queries []wire.Range // batch-decode scratch
	payload []byte       // response-payload encode scratch
	frame   []byte       // full-frame encode scratch
}

// serve decodes one request frame into fp.c and answers it inline when
// it cannot wait, reporting whether it did. The reply is buffered, not
// flushed: the reader flushes before it waits. A declined frame's call
// stays in fp.c for the reader to copy and hand to a goroutine.
func (fp *fastPath) serve(op wire.Op, id uint64, payload []byte) bool {
	fp.start = time.Now()
	fp.decode(op, payload)
	srvWireRequests.Inc()
	if !fp.c.inline() {
		return false
	}
	srvWireInlineServed.Inc()
	if err := fp.ws.s.serve(&fp.c, &fp.rep); err != nil {
		fp.frame = wire.AppendFrame(fp.frame[:0], errorFrame(id, err, fp.rep.retryAfter))
	} else {
		fp.payload = fp.rep.appendWire(fp.payload[:0], op)
		fp.frame = wire.AppendFrame(fp.frame[:0], wire.Frame{Op: op | wire.RespFlag, ID: id, Payload: fp.payload})
	}
	fp.cw.write(fp.frame, false)
	srvWireLatencyNanos.ObserveSince(fp.start)
	return true
}

// decode fills fp.c from a request frame. An estimate's or batch's
// tenant and attr alias the payload; an ingest and a create_attr are
// decoded into memory of their own.
func (fp *fastPath) decode(op wire.Op, payload []byte) {
	s := fp.ws.s
	c := &fp.c
	*c = call{op: op}
	var meta wire.Meta
	var err error
	switch op {
	case wire.OpEstimate:
		var v wire.EstimateReqView
		v, err = wire.DecodeEstimateReqView(payload)
		meta, c.tenant, c.attr, c.lo, c.hi, c.fresh = v.Meta, v.Tenant, v.Attr, v.Lo, v.Hi, v.Fresh
	case wire.OpEstimateBatch:
		var v wire.EstimateBatchReqView
		v, fp.queries, err = wire.DecodeEstimateBatchReqView(payload, s.cfg.MaxBatch, fp.queries)
		meta, c.tenant, c.attr, c.fresh, c.queries = v.Meta, v.Tenant, v.Attr, v.Fresh, v.Queries
	case wire.OpIngest:
		var v wire.IngestReq
		v, err = wire.DecodeIngestReq(payload, s.cfg.MaxBatch)
		meta, c.tenant, c.attr, c.values = v.Meta, nameBytes(v.Tenant), nameBytes(v.Attr), v.Values
	case wire.OpCreateAttr:
		var v wire.CreateAttrReq
		v, err = wire.DecodeCreateAttrReq(payload)
		meta, c.tenant, c.attr, c.cfg = v.Meta, nameBytes(v.Tenant), nameBytes(v.Attr), new(AttrConfig)
		if err == nil {
			err = decodeJSON(bytes.NewReader(v.Config), c.cfg)
		}
	case wire.OpPing:
		var v wire.PingReq
		v, err = wire.DecodePingReq(payload)
		meta = v.Meta
	case wire.OpSnapshotFetch:
		var v wire.SnapshotFetchReq
		v, err = wire.DecodeSnapshotFetchReq(payload)
		meta = v.Meta
	}
	// A count past MaxBatch is the core's shape error, not a decode one,
	// so both transports word it the same.
	if err != nil {
		c.over = errors.Is(err, wire.ErrTooLarge)
		if !c.over {
			c.bad = err
		}
	}
	c.retry = meta.Retry > 0
	c.deadline = s.deadline(op, fp.start, int64(meta.TimeoutMs))
}

// inline reports whether c may be answered on the reader goroutine:
// every request except one that can wait — a fresh read, a snapshot
// fetch, or a batch past inlineBatchMax — and any that failed to decode.
func (c *call) inline() bool {
	switch {
	case c.bad != nil || c.over:
		return true
	case c.op == wire.OpSnapshotFetch:
		return false
	}
	return !c.fresh && len(c.queries) <= inlineBatchMax
}

// own copies what c borrows from the frame buffer, so c can outlive the
// next ReadFrame on a request goroutine.
func (c *call) own() *call {
	o := *c
	o.tenant = bytes.Clone(c.tenant)
	o.attr = bytes.Clone(c.attr)
	o.queries = slices.Clone(c.queries)
	return &o
}

// respond runs a dispatched call through the request core on its
// goroutine and writes its one response, encoded into a buffer of its
// own (the one copy of a fetch's envelope) and flushed at once.
func (ws *WireServer) respond(cw *connWriter, id uint64, c *call, start time.Time) {
	var r reply
	f := wire.Frame{Op: c.op | wire.RespFlag, ID: id}
	if err := ws.s.serve(c, &r); err != nil {
		f = errorFrame(id, err, r.retryAfter)
	} else if c.op == wire.OpSnapshotFetch {
		f.Payload = r.snapshot
	} else {
		f.Payload = r.appendWire(nil, c.op)
	}
	cw.write(wire.AppendFrame(make([]byte, 0, wire.HeaderSize+len(f.Payload)+wire.TrailerSize), f), true)
	srvWireLatencyNanos.ObserveSince(start)
}

// appendWire encodes r as op's response payload onto dst. Pings and
// create_attr answer with an empty payload.
func (r *reply) appendWire(dst []byte, op wire.Op) []byte {
	switch op {
	case wire.OpEstimate:
		return estimateRes(r.res).Append(dst)
	case wire.OpEstimateBatch:
		// EstimateBatchRes's layout, encoded straight from the results.
		dst = binary.AppendUvarint(dst, uint64(len(r.results)))
		for _, res := range r.results {
			dst = estimateRes(res).Append(dst)
		}
		return dst
	case wire.OpIngest:
		return wire.IngestRes{Queued: uint32(r.ingest.Queued), Shed: uint32(r.ingest.Shed)}.Append(dst)
	}
	return dst
}

// errorFrame builds the OpError response for err, carrying the stable
// errcode and the retry-after throttle hint.
func errorFrame(id uint64, err error, retryAfter time.Duration) wire.Frame {
	res := wire.ErrorRes{
		Code:    uint16(errcode.Classify(err)),
		Message: err.Error(),
	}
	if retryAfter > 0 {
		ms := retryAfter.Milliseconds()
		if ms < 1 {
			ms = 1 // ceil: retrying earlier would just be refused again
		}
		res.RetryAfterMs = uint32(ms)
	}
	return wire.Frame{Op: wire.OpError, ID: id, Payload: res.Append(nil)}
}

// estimateRes converts the service result to its wire twin.
func estimateRes(r EstimateResult) wire.EstimateRes {
	return wire.EstimateRes{
		Selectivity: r.Selectivity,
		Rows:        r.Rows,
		Generation:  r.Generation,
		Rung:        r.Rung,
		Degraded:    r.Degraded,
	}
}
