// Package client is the native Go client for the selest estimator
// service. It speaks the selestwire binary protocol (pipelined
// persistent TCP connections, DESIGN.md §13) to selestd's wire listener
// and gives every call the same typed surface: request options, typed
// errors (errors.Is against the re-exported sentinels), and a deadline
// budget announced to the server so its degradation ladder sees what
// the client will actually wait for. Callers that can only speak HTTP
// use selestd's JSON front directly.
//
// Every call runs a bounded retry loop with full-jitter exponential
// backoff. Server throttle hints (RetryAfterMs) stretch the backoff;
// non-retryable failures (bad request, not found, conflict) return
// immediately.
//
//	c, err := client.New(client.Options{Addr: "127.0.0.1:7654"})
//	...
//	res, err := c.Estimate(ctx, "tenant", "latency", 0.1, 0.9,
//	    client.WithTimeout(50*time.Millisecond))
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selest/internal/cluster"
	"selest/internal/wire"
)

// Client is a selest service client. It is safe for concurrent use; one
// Client per target fleet is the intended shape (each replica's wire
// transport multiplexes all goroutines over its own connection pool).
// With a single address the routing layer collapses to a no-op; with
// Options.Addrs the client shards tenants over the fleet and fails reads
// over down each tenant's preference list (see router.go).
type Client struct {
	opts   Options
	ring   *cluster.Ring
	reps   []*replica
	byAddr map[string]*replica

	requests  atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64
	ejected   atomic.Uint64

	closed atomic.Bool
	stop   chan struct{}
	done   chan struct{}
}

// Stats is a point-in-time snapshot of client-side counters.
type Stats struct {
	// Requests counts API calls (not attempts).
	Requests uint64 `json:"requests"`
	// Retries counts re-attempts after a retryable failure.
	Retries uint64 `json:"retries"`
	// Dials counts connections established, summed over every
	// replica's pool.
	Dials uint64 `json:"dials"`
	// Failovers counts attempts re-routed to the next ring replica after
	// a connection- or 5xx-class failure (multi-replica clients only).
	Failovers uint64 `json:"failovers"`
	// Ejected counts replica down-markings (a replica bouncing counts
	// once per ejection, not once per failed call).
	Ejected uint64 `json:"ejected"`
}

// New validates opts and builds a client. No connection is made until
// the first call (the wire pools dial lazily), so New succeeds even if
// the servers are not up yet.
func New(opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ring, err := newRing(opts)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:   opts,
		ring:   ring,
		byAddr: make(map[string]*replica, ring.Len()),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, addr := range ring.Members() {
		ro := opts
		ro.Addr = addr
		rep := &replica{addr: addr, t: newWireTransport(ro)}
		c.reps = append(c.reps, rep)
		c.byAddr[addr] = rep
	}
	if opts.HealthCheckEvery > 0 {
		go c.healthLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// Close stops the health checker and releases every replica's
// connections. In-flight calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	<-c.done
	var first error
	for _, rep := range c.reps {
		if err := rep.t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats reports the client's counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Requests:  c.requests.Load(),
		Retries:   c.retries.Load(),
		Failovers: c.failovers.Load(),
		Ejected:   c.ejected.Load(),
	}
	for _, rep := range c.reps {
		s.Dials += rep.t.dials.Load()
	}
	return s
}

// Estimate answers one range query [lo, hi] on tenant's attr.
func (c *Client) Estimate(ctx context.Context, tenant, attr string, lo, hi float64, opts ...CallOption) (Result, error) {
	co := c.callOpts(opts)
	var out Result
	err := c.do(ctx, co, tenant, func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		res, err := t.estimate(ctx, meta, tenant, attr, lo, hi, co.fresh)
		if err == nil {
			out = res
		}
		return err
	})
	return out, err
}

// EstimateBatch answers many queries against one attribute in a single
// round trip.
func (c *Client) EstimateBatch(ctx context.Context, tenant, attr string, queries []Range, opts ...CallOption) ([]Result, error) {
	co := c.callOpts(opts)
	var out []Result
	err := c.do(ctx, co, tenant, func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		res, err := t.estimateBatch(ctx, meta, tenant, attr, queries, co.fresh)
		if err == nil {
			out = res
		}
		return err
	})
	return out, err
}

// Ingest enqueues stream values on tenant's attr. The result reports
// how many were queued and how many the server shed under pressure
// (with Replication > 1, from the first replica that accepted). Note an
// ingest retry after an ambiguous transport failure can deliver values
// twice; the estimator tolerates duplicates statistically, but
// exactly-once is not promised.
func (c *Client) Ingest(ctx context.Context, tenant, attr string, values []float64, opts ...CallOption) (IngestResult, error) {
	co := c.callOpts(opts)
	var out IngestResult
	var once sync.Once
	err := c.doAll(ctx, co, tenant, func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		res, err := t.ingest(ctx, meta, tenant, attr, values)
		if err == nil {
			once.Do(func() { out = res })
		}
		return err
	})
	return out, err
}

// CreateAttr registers an attribute (idempotent: re-creating with the
// same configuration succeeds; a different configuration is
// ErrConflict). With Replication > 1 the registration fans out to the
// tenant's whole replica set.
func (c *Client) CreateAttr(ctx context.Context, tenant, attr string, cfg AttrConfig, opts ...CallOption) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("client: encode attr config: %w", err)
	}
	co := c.callOpts(opts)
	return c.doAll(ctx, co, tenant, func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		return t.createAttr(ctx, meta, tenant, attr, cfgJSON)
	})
}

// Ping round-trips an OpPing frame. A nil return means a server
// answered — with a fleet, the replica the empty routing key hashes to,
// failing over like any read.
func (c *Client) Ping(ctx context.Context, opts ...CallOption) error {
	co := c.callOpts(opts)
	return c.do(ctx, co, "", func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		return t.ping(ctx, meta)
	})
}

// FetchSnapshot retrieves the serving replica's full catalog snapshot —
// the deterministic SELS envelope SaveSnapshot writes, byte-identical
// to the server's own save. It is the transfer half of `selestd -join`:
// a booting replica fetches a peer's snapshot and recovers from it
// before accepting traffic. The envelope self-verifies (CRC32 manifest
// + per-entry checks), so a torn transfer fails recovery rather than
// booting a partial replica.
func (c *Client) FetchSnapshot(ctx context.Context, opts ...CallOption) ([]byte, error) {
	co := c.callOpts(opts)
	var out []byte
	err := c.do(ctx, co, "", func(ctx context.Context, meta wire.Meta, t *wireTransport) error {
		b, err := t.snapshotFetch(ctx, meta)
		if err == nil {
			out = b
		}
		return err
	})
	return out, err
}

func (c *Client) callOpts(opts []CallOption) callOptions {
	co := callOptions{maxRetries: -1}
	for _, o := range opts {
		o(&co)
	}
	return co
}

// resolve folds per-call overrides into the attempt budget, retry cap,
// and the wire metadata announced to the server.
func (c *Client) resolve(co callOptions) (time.Duration, int, wire.Meta) {
	budget := co.timeout
	if budget <= 0 {
		budget = c.opts.RequestTimeout
	}
	maxRetries := co.maxRetries
	if maxRetries < 0 {
		maxRetries = c.opts.MaxRetries
	}
	// The server hears whole milliseconds, rounded up: a sub-millisecond
	// budget must not arrive as 0, which reads as "no budget" and takes
	// the server's default, and a very long one must not wrap.
	ms := budget / time.Millisecond
	if budget%time.Millisecond != 0 {
		ms++
	}
	return budget, maxRetries, wire.Meta{TimeoutMs: uint32(min(ms, math.MaxUint32))}
}

func retryMeta(meta wire.Meta, n int) wire.Meta {
	if n > 255 {
		meta.Retry = 255
	} else {
		meta.Retry = uint8(n)
	}
	return meta
}

// do is the read-path retry loop: per-attempt deadline, typed-error
// classification, full-jitter backoff stretched by server throttle
// hints, all bounded by the caller's context. Attempts route over
// tenant's replica preference list: a connection- or 5xx-class failure
// advances to the next ring replica (and a connection failure marks the
// replica down for everyone); an over-quota refusal stays put so the
// server's Retry-After hint is honored where the tenant's bucket lives.
func (c *Client) do(ctx context.Context, co callOptions, tenant string, attempt func(ctx context.Context, meta wire.Meta, t *wireTransport) error) error {
	c.requests.Add(1)
	budget, maxRetries, meta := c.resolve(co)
	pref := c.routeFor(tenant)
	fo := 0
	for n := 0; ; n++ {
		if n > 0 {
			c.retries.Add(1)
			meta = retryMeta(meta, n)
		}
		rep := pick(pref, fo)
		actx, cancel := context.WithTimeout(ctx, budget)
		err := attempt(actx, meta, rep.t)
		cancel()
		if err == nil {
			rep.markUp()
			return nil
		}
		if connErr(err) {
			if !rep.down.Swap(true) {
				c.ejected.Add(1)
			}
		}
		if len(pref) > 1 && failsOver(err) {
			fo++
			c.failovers.Add(1)
		}
		if n >= maxRetries || !retryable(err) {
			return err
		}
		// The parent context ending is final even when the attempt error
		// itself looks retryable.
		if ctx.Err() != nil {
			return err
		}
		if serr := c.sleepBackoff(ctx, n, err); serr != nil {
			return err
		}
	}
}

// doAll is the write-path loop: the attempt fans out to every replica
// in tenant's preference list, and the call succeeds when at least one
// accepts (best-effort replication — DESIGN.md §15 spells out why a
// missed secondary is acceptable: replicas are statistical estimators,
// and a rejoining replica resyncs wholesale by snapshot). Down replicas
// are skipped when the write can land elsewhere; with nothing accepted
// yet, retryable failures burn the shared retry budget round by round.
func (c *Client) doAll(ctx context.Context, co callOptions, tenant string, attempt func(ctx context.Context, meta wire.Meta, t *wireTransport) error) error {
	c.requests.Add(1)
	budget, maxRetries, meta := c.resolve(co)
	pending := append([]*replica(nil), c.routeFor(tenant)...)
	accepted := 0
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			c.retries.Add(1)
			meta = retryMeta(meta, n)
		}
		anyUp := false
		for _, rep := range pending {
			if !rep.down.Load() {
				anyUp = true
				break
			}
		}
		var still []*replica
		for _, rep := range pending {
			if rep.down.Load() && (accepted > 0 || anyUp) {
				// A dead replica with the write landed (or landable)
				// elsewhere is not worth an attempt's latency.
				continue
			}
			actx, cancel := context.WithTimeout(ctx, budget)
			err := attempt(actx, meta, rep.t)
			cancel()
			if err == nil {
				accepted++
				rep.markUp()
				continue
			}
			if connErr(err) {
				if !rep.down.Swap(true) {
					c.ejected.Add(1)
				}
			}
			lastErr = err
			if retryable(err) {
				still = append(still, rep)
			}
		}
		if accepted > 0 {
			return nil
		}
		if len(still) == 0 || n >= maxRetries || ctx.Err() != nil {
			return lastErr
		}
		pending = still
		if serr := c.sleepBackoff(ctx, n, lastErr); serr != nil {
			return lastErr
		}
	}
}

// retryable classifies one attempt's failure. Server-reported errors
// retry only when the server might answer differently next time
// (throttled, draining, timed out, internal); caller mistakes never do.
// Anything else is a transport-level failure — the connection is torn
// down, so a retry dials fresh.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case CodeOverQuota, CodeDraining, CodeTimeout, CodeInternal:
			return true
		}
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// sleepBackoff waits the full-jitter exponential delay for retry n:
// U(0, base·2ⁿ) capped at RetryMaxDelay, raised to the server's
// throttle hint when one came back (retrying before the hint would just
// be refused again).
func (c *Client) sleepBackoff(ctx context.Context, n int, err error) error {
	ceil := c.opts.RetryBaseDelay << uint(n)
	if ceil > c.opts.RetryMaxDelay || ceil <= 0 {
		ceil = c.opts.RetryMaxDelay
	}
	d := time.Duration(rand.Int63n(int64(ceil) + 1))
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		hint := ae.RetryAfter
		if hint > c.opts.RetryMaxDelay {
			hint = c.opts.RetryMaxDelay
		}
		if hint > d {
			d = hint
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
