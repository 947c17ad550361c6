// The request core: the one sequence every transport runs a request
// through, so HTTP, the wire's inline path and its goroutine path differ
// only in how they decode a request and encode the answer (DESIGN.md
// §16). Every op takes the same steps in the same order — drain gate,
// fault site, shape check, lookup, admission, deadline check, answer —
// so a request that cannot succeed never charges quota, and the same
// failure carries the same code and message on every transport.
package server

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"selest/internal/errcode"
	"selest/internal/faultinject"
	"selest/internal/wire"
)

// call is one decoded request in the core's transport-neutral form.
// Tenant and attr are byte views: on the wire's inline path they alias
// the frame buffer and are valid only until the next ReadFrame.
type call struct {
	op wire.Op
	// bad is the transport's decode failure. The shape check reports
	// it, so a malformed request meets the drain gate first like any
	// other.
	bad error
	// over reports a batch or ingest whose count passed MaxBatch at
	// decode, before its elements were read.
	over bool

	tenant, attr []byte
	lo, hi       float64
	fresh        bool
	queries      []wire.Range // estimate_batch
	values       []float64    // ingest
	cfg          *AttrConfig  // create_attr
	retry        bool         // the client announced a retry

	// deadline is the request's one deadline; zero means none. ctx, when
	// set, is the parent of the context the fresh rung derives for its
	// flush.
	deadline time.Time
	ctx      context.Context
}

// reply is what the core answered, for the transport to encode.
type reply struct {
	res        EstimateResult   // estimate
	results    []EstimateResult // estimate_batch
	ingest     IngestResult     // ingest
	snapshot   []byte           // snapshot_fetch
	retryAfter time.Duration    // over_quota: when the request would be admitted
}

var errNameRequired = fmt.Errorf("%w: tenant and attr are required", ErrBadValue)

// serve runs c through the core. A panic anywhere in it is contained to
// this request as an internal error.
func (s *Server) serve(c *call, r *reply) (err error) {
	srvInflight.Set(float64(s.inflight.Add(1)))
	defer func() {
		srvInflight.Set(float64(s.inflight.Add(-1)))
		if rec := recover(); rec != nil {
			srvPanics.Inc()
			err = fmt.Errorf("panic contained: %v", rec)
		}
	}()
	r.retryAfter = 0
	if c.retry {
		srvRetried.Inc()
	}
	if s.draining.Load() {
		return ErrDraining
	}
	if err := faultinject.Check(FaultHandler); err != nil {
		return err
	}
	tn, a, err := s.resolve(c)
	if err != nil {
		return err
	}
	if cost := c.cost(); cost > 0 {
		if r.retryAfter, err = s.admitBucket(tn, cost); err != nil {
			return err
		}
	}
	return s.answer(c, a, r)
}

// resolve is the shape check, then the lookup: an estimate, batch or
// ingest needs its attribute; a create_attr charges its tenant when the
// tenant exists already.
func (s *Server) resolve(c *call) (*tenant, *attribute, error) {
	if err := s.check(c); err != nil {
		return nil, nil, err
	}
	switch c.op {
	case wire.OpEstimate, wire.OpEstimateBatch, wire.OpIngest:
		return s.lookup(c.tenant, c.attr)
	case wire.OpCreateAttr:
		return s.tenantNamed(c.tenant), nil, nil
	}
	return nil, nil, nil
}

// check is the core's one shape check: everything about a request that
// can be judged without server state.
func (s *Server) check(c *call) error {
	if c.bad != nil {
		return fmt.Errorf("%w: %v", ErrBadValue, c.bad)
	}
	if c.op == wire.OpPing || c.op == wire.OpSnapshotFetch {
		return nil
	}
	if len(c.tenant) == 0 || len(c.attr) == 0 {
		return errNameRequired
	}
	switch c.op {
	case wire.OpEstimate:
		return validRange(c.lo, c.hi)
	case wire.OpEstimateBatch:
		if c.over || len(c.queries) > s.cfg.MaxBatch {
			return fmt.Errorf("%w: batch exceeds limit %d", ErrBadValue, s.cfg.MaxBatch)
		}
		if len(c.queries) == 0 {
			return fmt.Errorf("%w: empty batch", ErrBadRange)
		}
		for _, q := range c.queries {
			if err := validRange(q.Lo, q.Hi); err != nil {
				return err
			}
		}
	case wire.OpIngest:
		if c.over || len(c.values) > s.cfg.MaxBatch {
			return fmt.Errorf("%w: ingest exceeds limit %d", ErrBadValue, s.cfg.MaxBatch)
		}
		if len(c.values) == 0 {
			return fmt.Errorf("%w: empty values", ErrBadValue)
		}
		for _, v := range c.values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite %v", ErrBadValue, v)
			}
		}
	case wire.OpCreateAttr:
		return c.cfg.validate()
	}
	return nil
}

// cost is what admission charges c: one token per estimate query or
// ingested value, one per create_attr. Pings and snapshot fetches cost
// nothing and skip admission: a saturated replica still answers
// "alive", and a joining replica is not a tenant.
func (c *call) cost() int {
	switch c.op {
	case wire.OpEstimate, wire.OpCreateAttr:
		return 1
	case wire.OpEstimateBatch:
		return len(c.queries)
	case wire.OpIngest:
		return len(c.values)
	}
	return 0
}

// expired is the core's one deadline check; a zero deadline never
// expires. time.Until reads only the monotonic clock, half the cost of
// time.Now on the inline path.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Until(deadline) <= 0
}

// deadline is a read's deadline: start plus the budget the client named
// in milliseconds, or plus DefaultTimeout when it named none. Ingest,
// create_attr and snapshot_fetch run to completion and get none.
func (s *Server) deadline(op wire.Op, start time.Time, timeoutMs int64) time.Time {
	if op != wire.OpEstimate && op != wire.OpEstimateBatch {
		return time.Time{}
	}
	if timeoutMs > 0 {
		// A budget too long for a Duration is no limit, not an overflow
		// into the past.
		return start.Add(time.Duration(min(timeoutMs, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond)
	}
	return start.Add(s.cfg.DefaultTimeout)
}

// answer is the core's last step. Non-fresh reads check the deadline
// before answering and every 16 batch queries. A fresh read never times
// out: its flush degrades it to the snapshot once the budget left is
// below DegradeDeadline, a spent budget included (DESIGN.md §12). An
// estimate or a whole batch answers from one pinned snapshot read.
// Ingest, create_attr and snapshot_fetch run to completion.
func (s *Server) answer(c *call, a *attribute, r *reply) error {
	var err error
	switch c.op {
	case wire.OpEstimate:
		if !c.fresh && expired(c.deadline) {
			return errcode.ErrTimeout
		}
		p := s.pin(c, a, c.fresh)
		r.res = p.estimate(c.lo, c.hi)
	case wire.OpEstimateBatch:
		r.results = slices.Grow(r.results[:0], len(c.queries))
		p := s.pin(c, a, c.fresh)
		for i, q := range c.queries {
			if i&15 == 0 && !c.fresh && expired(c.deadline) {
				return errcode.ErrTimeout
			}
			r.results = append(r.results, p.estimate(q.Lo, q.Hi))
		}
	case wire.OpIngest:
		r.ingest = s.enqueue(a, c.values)
	case wire.OpCreateAttr:
		err = s.create(string(c.tenant), string(c.attr), *c.cfg)
	case wire.OpSnapshotFetch:
		r.snapshot, err = s.SnapshotBytes()
	}
	return err
}
