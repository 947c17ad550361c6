// The selestwire transport: a pool of persistent TCP connections, each
// pipelining many in-flight requests matched to responses by request id.
// Connections dial lazily and die loudly (a read error fails every
// pending call on that connection so the retry loop redials fresh). The
// client's health loop calls healthCheck each cycle, which pings idle
// connections so a silently dead socket is discovered before a caller
// inherits it.
package client

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selest/internal/wire"
)

type wireTransport struct {
	opts  Options
	slots []wireSlot
	next  atomic.Uint64
	dials atomic.Uint64

	closed atomic.Bool
}

// wireSlot is one pool position: a lazily-dialed connection plus the
// mutex that serialises redials (so a thundering herd after a failure
// makes one dial, not Conns×callers).
type wireSlot struct {
	mu   sync.Mutex
	conn atomic.Pointer[wireConn]
}

func newWireTransport(opts Options) *wireTransport {
	return &wireTransport{
		opts:  opts,
		slots: make([]wireSlot, opts.Conns),
	}
}

func (t *wireTransport) close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for i := range t.slots {
		if wc := t.slots[i].conn.Load(); wc != nil {
			wc.fail(errClosed)
		}
	}
	return nil
}

var errClosed = fmt.Errorf("client: closed")

// payloadPool recycles request-encode and response-copy buffers across
// calls — the client-side half of the wire fast path's zero-alloc frame
// lifecycle. Buffers travel as *[]byte so Get/Put do not box a slice
// header per call; every success path releases its buffer right after
// decoding (decoded messages copy what they keep, so nothing aliases a
// returned buffer), except a snapshot fetch's, which its caller keeps.
var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxKeptReadBuf bounds the buffers a connection and the pool keep
// between replies.
const maxKeptReadBuf = 1 << 20

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

func putPayloadBuf(b *[]byte) {
	if b != nil && cap(*b) <= maxKeptReadBuf {
		payloadPool.Put(b)
	}
}

// wireResp is a routed response frame: the opcode plus its payload in a
// pooled buffer the waiter releases after decoding.
type wireResp struct {
	op  wire.Op
	buf *[]byte
}

// conn returns a live connection from the pool, dialing the slot if its
// connection is nil or dead.
func (t *wireTransport) conn(ctx context.Context) (*wireConn, error) {
	if t.closed.Load() {
		return nil, errClosed
	}
	s := &t.slots[t.next.Add(1)%uint64(len(t.slots))]
	if wc := s.conn.Load(); wc != nil && !wc.dead.Load() {
		return wc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if wc := s.conn.Load(); wc != nil && !wc.dead.Load() {
		return wc, nil
	}
	if t.closed.Load() {
		return nil, errClosed
	}
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", t.opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", t.opts.Addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	t.dials.Add(1)
	wc := &wireConn{
		c:       nc,
		pending: map[uint64]chan wireResp{},
	}
	wc.touch()
	go wc.readLoop()
	s.conn.Store(wc)
	return wc, nil
}

// healthCheck is one probe cycle, driven by the client's health loop.
// Pooled connections idle for a full interval are pinged; a failed ping
// tears the connection down so the next call redials instead of timing
// out on a dead socket. A recently-used live connection counts as
// healthy without a ping. With no live connection at all, the probe
// dial-pings — that round trip is what re-admits a recovered replica to
// routing.
func (t *wireTransport) healthCheck(ctx context.Context) error {
	if t.closed.Load() {
		return errClosed
	}
	idleBefore := time.Now().Add(-t.opts.HealthCheckEvery).UnixNano()
	live := false
	for i := range t.slots {
		wc := t.slots[i].conn.Load()
		if wc == nil || wc.dead.Load() {
			continue
		}
		if wc.lastUsed.Load() > idleBefore {
			live = true
			continue
		}
		_, rp, err := wc.roundTrip(ctx, wire.OpPing, wire.PingReq{}.Append(nil))
		putPayloadBuf(rp)
		if err != nil {
			wc.fail(fmt.Errorf("client: health check: %w", err))
			continue
		}
		live = true
	}
	if live {
		return nil
	}
	return t.ping(ctx, wire.Meta{})
}

// roundTrip sends one request on any pooled connection and returns the
// response payload in a pooled buffer the caller must release with
// putPayloadBuf after decoding, converting error frames to *APIError.
func (t *wireTransport) roundTrip(ctx context.Context, op wire.Op, payload []byte) (*[]byte, error) {
	wc, err := t.conn(ctx)
	if err != nil {
		return nil, err
	}
	rop, rp, err := wc.roundTrip(ctx, op, payload)
	if err != nil {
		return nil, err
	}
	switch rop {
	case op | wire.RespFlag:
		return rp, nil
	case wire.OpError:
		er, derr := wire.DecodeErrorRes(*rp)
		putPayloadBuf(rp)
		if derr != nil {
			wc.fail(derr)
			return nil, derr
		}
		return nil, &APIError{
			Code:       Code(er.Code),
			Message:    er.Message,
			RetryAfter: time.Duration(er.RetryAfterMs) * time.Millisecond,
		}
	default:
		putPayloadBuf(rp)
		err := fmt.Errorf("%w: response op %s to request %s", wire.ErrProtocol, rop, op)
		wc.fail(err)
		return nil, err
	}
}

func (t *wireTransport) estimate(ctx context.Context, meta wire.Meta, tenant, attr string, lo, hi float64, fresh bool) (Result, error) {
	req := wire.EstimateReq{Meta: meta, Tenant: tenant, Attr: attr, Lo: lo, Hi: hi, Fresh: fresh}
	pb := getPayloadBuf()
	*pb = req.Append((*pb)[:0])
	rp, err := t.roundTrip(ctx, wire.OpEstimate, *pb)
	putPayloadBuf(pb)
	if err != nil {
		return Result{}, err
	}
	res, err := wire.DecodeEstimateRes(*rp)
	putPayloadBuf(rp)
	if err != nil {
		return Result{}, err
	}
	return resultFromWire(res), nil
}

func (t *wireTransport) estimateBatch(ctx context.Context, meta wire.Meta, tenant, attr string, queries []Range, fresh bool) ([]Result, error) {
	req := wire.EstimateBatchReq{Meta: meta, Tenant: tenant, Attr: attr, Fresh: fresh, Queries: make([]wire.Range, len(queries))}
	for i, q := range queries {
		req.Queries[i] = wire.Range{Lo: q.Lo, Hi: q.Hi}
	}
	pb := getPayloadBuf()
	*pb = req.Append((*pb)[:0])
	rp, err := t.roundTrip(ctx, wire.OpEstimateBatch, *pb)
	putPayloadBuf(pb)
	if err != nil {
		return nil, err
	}
	res, err := wire.DecodeEstimateBatchRes(*rp)
	putPayloadBuf(rp)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(res.Results))
	for i, r := range res.Results {
		out[i] = resultFromWire(r)
	}
	return out, nil
}

func (t *wireTransport) ingest(ctx context.Context, meta wire.Meta, tenant, attr string, values []float64) (IngestResult, error) {
	req := wire.IngestReq{Meta: meta, Tenant: tenant, Attr: attr, Values: values}
	pb := getPayloadBuf()
	*pb = req.Append((*pb)[:0])
	rp, err := t.roundTrip(ctx, wire.OpIngest, *pb)
	putPayloadBuf(pb)
	if err != nil {
		return IngestResult{}, err
	}
	res, err := wire.DecodeIngestRes(*rp)
	putPayloadBuf(rp)
	if err != nil {
		return IngestResult{}, err
	}
	return IngestResult{Queued: int(res.Queued), Shed: int(res.Shed)}, nil
}

func (t *wireTransport) createAttr(ctx context.Context, meta wire.Meta, tenant, attr string, cfgJSON []byte) error {
	req := wire.CreateAttrReq{Meta: meta, Tenant: tenant, Attr: attr, Config: cfgJSON}
	rp, err := t.roundTrip(ctx, wire.OpCreateAttr, req.Append(nil))
	putPayloadBuf(rp)
	return err
}

func (t *wireTransport) ping(ctx context.Context, meta wire.Meta) error {
	pb := getPayloadBuf()
	*pb = wire.PingReq{Meta: meta}.Append((*pb)[:0])
	rp, err := t.roundTrip(ctx, wire.OpPing, *pb)
	putPayloadBuf(pb)
	putPayloadBuf(rp)
	return err
}

// snapshotFetch pulls the server's full snapshot envelope. The response
// payload is the raw SELS byte stream — no wrapper to decode — and the
// caller keeps the buffer it arrived in: it never goes back to the pool,
// which would otherwise hold an envelope-sized buffer.
func (t *wireTransport) snapshotFetch(ctx context.Context, meta wire.Meta) ([]byte, error) {
	rp, err := t.roundTrip(ctx, wire.OpSnapshotFetch, wire.SnapshotFetchReq{Meta: meta}.Append(nil))
	if err != nil {
		return nil, err
	}
	return *rp, nil
}

func resultFromWire(r wire.EstimateRes) Result {
	return Result{
		Selectivity: r.Selectivity,
		Rows:        r.Rows,
		Rung:        r.Rung,
		Generation:  r.Generation,
		Degraded:    r.Degraded,
	}
}

// wireConn is one pipelined connection: callers register a response
// channel under a fresh request id, write their frame straight to the
// socket (serialised by wmu), and wait; the reader goroutine routes
// response frames to their channels by id. Any read or write error fails
// the whole connection — pending channels close, the pool redials on
// next use.
type wireConn struct {
	c net.Conn

	wmu  sync.Mutex // serialises frame writes
	wbuf []byte     // frame-encode scratch, owned by wmu

	mu      sync.Mutex
	pending map[uint64]chan wireResp
	isDead  bool
	err     error

	nextID   atomic.Uint64
	dead     atomic.Bool
	lastUsed atomic.Int64
}

func (wc *wireConn) touch() { wc.lastUsed.Store(time.Now().UnixNano()) }

// fail marks the connection dead, closes the socket, and closes every
// pending response channel (waiters see a conn-broken error).
func (wc *wireConn) fail(err error) {
	wc.mu.Lock()
	if wc.isDead {
		wc.mu.Unlock()
		return
	}
	wc.isDead = true
	wc.err = err
	wc.dead.Store(true)
	pending := wc.pending
	wc.pending = nil
	wc.mu.Unlock()
	_ = wc.c.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// readLoop routes response frames to their waiters until the stream
// errors (peer hang-up, corruption, or our own Close).
func (wc *wireConn) readLoop() {
	br := bufio.NewReaderSize(wc.c, 64<<10)
	var buf []byte
	for {
		// A reply is bounded by its frame's own 32-bit length field, not
		// by the request-side cap: a snapshot_fetch reply carries the
		// whole service, and ReadFrame holds memory only as bytes arrive.
		fr, b, err := wire.ReadFrame(br, math.MaxUint32, buf)
		if err != nil {
			wc.fail(fmt.Errorf("client: connection read: %w", err))
			return
		}
		buf = b
		wc.mu.Lock()
		ch, ok := wc.pending[fr.ID]
		if ok {
			delete(wc.pending, fr.ID)
		}
		wc.mu.Unlock()
		if len(fr.Payload) > maxKeptReadBuf {
			// A large reply (a snapshot fetch's) keeps the buffer it was
			// read into, uncopied, and the next frame reads into a new
			// one, so the connection does not hold the largest reply's
			// size for its life.
			buf = nil
			if ok {
				payload := fr.Payload
				ch <- wireResp{op: fr.Op, buf: &payload}
			}
		} else if ok {
			// The payload aliases the read buffer; copy into a pooled
			// buffer before handing it across the channel (the waiter
			// releases it after decoding).
			pb := getPayloadBuf()
			*pb = append((*pb)[:0], fr.Payload...)
			ch <- wireResp{op: fr.Op, buf: pb}
		}
		// An unmatched id is a response whose waiter gave up (context
		// cancel); drop it.
	}
}

// roundTrip registers a waiter, writes the frame through the per-conn
// encode scratch (no per-call frame allocation), and waits. The returned
// payload buffer is pooled — the caller releases it after decoding.
func (wc *wireConn) roundTrip(ctx context.Context, op wire.Op, payload []byte) (wire.Op, *[]byte, error) {
	wc.touch()
	if len(payload) > wire.MaxPayload {
		return 0, nil, wire.ErrTooLarge
	}
	id := wc.nextID.Add(1)
	ch := make(chan wireResp, 1)
	wc.mu.Lock()
	if wc.isDead {
		err := wc.err
		wc.mu.Unlock()
		return 0, nil, err
	}
	wc.pending[id] = ch
	wc.mu.Unlock()

	wc.wmu.Lock()
	wc.wbuf = wire.AppendFrame(wc.wbuf[:0], wire.Frame{Op: op, ID: id, Payload: payload})
	_, err := wc.c.Write(wc.wbuf)
	wc.wmu.Unlock()
	if err != nil {
		wc.forget(id)
		wc.fail(fmt.Errorf("client: connection write: %w", err))
		return 0, nil, err
	}

	select {
	case r, ok := <-ch:
		if !ok {
			wc.mu.Lock()
			err := wc.err
			wc.mu.Unlock()
			return 0, nil, err
		}
		wc.touch()
		return r.op, r.buf, nil
	case <-ctx.Done():
		wc.forget(id)
		return 0, nil, ctx.Err()
	}
}

// forget abandons a pending request (its response, if it ever arrives,
// is dropped by readLoop).
func (wc *wireConn) forget(id uint64) {
	wc.mu.Lock()
	if wc.pending != nil {
		delete(wc.pending, id)
	}
	wc.mu.Unlock()
}
