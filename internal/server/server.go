// Package server is the fault-tolerant multi-tenant estimator service
// behind cmd/selestd: the serving-path counterpart of the fit path's
// graceful-degradation ladder (DESIGN.md §7). The engine underneath
// answers a range query from a lock-free snapshot in nanoseconds; this
// package adds everything a daemon needs for that answer to survive the
// network — per-tenant token-bucket admission control (429 + Retry-After
// on breach), bounded ingest queues that shed oldest under pressure
// instead of blocking, per-request deadline propagation with a
// degradation ladder (fresh → snapshot → reservoir → uniform), panic
// containment per request, graceful shutdown that drains every accepted
// request and flushes a crash-safe snapshot, and warm-start recovery that
// replays the persisted catalog on boot.
//
// The design rule throughout: overload, crashes, and slow tenants degrade
// estimate *quality* (a staler snapshot, a cheaper rung), never
// *availability* — a registered attribute always produces an answer.
package server

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"selest/internal/core"
	"selest/internal/errcode"
	"selest/internal/faultinject"
	"selest/internal/kde"
	"selest/internal/online"
	"selest/internal/wire"
)

// Fault-injection sites: the chaos suite wedges or panics these to prove
// the failure behaviour (see faultinject).
const (
	// FaultRefitPrimary fails an attribute's primary (rung-0) builder,
	// driving the online ladder down to its fallbacks.
	FaultRefitPrimary = "server.refit.primary"
	// FaultHandler fires inside the request path, proving per-request
	// panic containment keeps the daemon serving.
	FaultHandler = "server.handler"
)

// Typed service errors, rooted in the transport-neutral registry
// (internal/errcode) both the HTTP and wire layers map from — same
// stable code, same message, regardless of the envelope. The quota,
// drain, conflict, and not-found sentinels are the registry's own; the
// two request-shape sentinels are service-specific refinements that wrap
// errcode.ErrBadRequest, so errors.Is matches either level: ErrBadRange
// for ranges and domains, ErrBadValue for every other malformed field.
var (
	ErrNotFound  = errcode.ErrNotFound
	ErrBadRange  = fmt.Errorf("%w: invalid range", errcode.ErrBadRequest)
	ErrBadValue  = fmt.Errorf("%w: invalid value", errcode.ErrBadRequest)
	ErrOverQuota = errcode.ErrOverQuota
	ErrDraining  = errcode.ErrDraining
	ErrConflict  = errcode.ErrConflict
)

// AttrConfig is one attribute's estimator configuration — the unit the
// manifest persists, so a restart rebuilds identical serving machinery.
type AttrConfig struct {
	// DomainLo/DomainHi bound the attribute. Required, finite, Lo < Hi;
	// the uniform rung answers over this interval.
	DomainLo float64 `json:"domain_lo"`
	DomainHi float64 `json:"domain_hi"`
	// Method/Rule/Boundary/Bins/Bandwidth mirror core.Options for the
	// primary (rung-0) builder. Empty method defaults to kernel.
	Method    core.Method        `json:"method,omitempty"`
	Rule      core.BandwidthRule `json:"rule,omitempty"`
	Boundary  kde.BoundaryMode   `json:"boundary,omitempty"`
	Bins      int                `json:"bins,omitempty"`
	Bandwidth float64            `json:"bandwidth,omitempty"`
	// ReservoirSize/RefitEvery/Seed parameterise the online engine.
	// Zeroes take the online package defaults (2000 / 10×).
	ReservoirSize int    `json:"reservoir_size,omitempty"`
	RefitEvery    int    `json:"refit_every,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

func (c *AttrConfig) validate() error {
	if math.IsNaN(c.DomainLo) || math.IsInf(c.DomainLo, 0) ||
		math.IsNaN(c.DomainHi) || math.IsInf(c.DomainHi, 0) {
		return fmt.Errorf("%w: non-finite domain", ErrBadValue)
	}
	if !(c.DomainHi > c.DomainLo) {
		return fmt.Errorf("%w: empty domain [%v, %v]", ErrBadRange, c.DomainLo, c.DomainHi)
	}
	if c.ReservoirSize < 0 || c.RefitEvery < -1 || c.Bins < 0 {
		return fmt.Errorf("%w: negative size parameter", ErrBadValue)
	}
	if math.IsNaN(c.Bandwidth) || c.Bandwidth < 0 {
		return fmt.Errorf("%w: bandwidth %v", ErrBadValue, c.Bandwidth)
	}
	opts := c.options()
	opts.Method = c.methodOrDefault()
	if err := opts.Validate(); err != nil {
		return err
	}
	return nil
}

func (c *AttrConfig) methodOrDefault() core.Method {
	if c.Method == "" {
		return core.Kernel
	}
	return c.Method
}

func (c *AttrConfig) options() core.Options {
	return core.Options{
		Method:    c.Method,
		DomainLo:  c.DomainLo,
		DomainHi:  c.DomainHi,
		Bins:      c.Bins,
		Bandwidth: c.Bandwidth,
		Rule:      c.Rule,
		Boundary:  c.Boundary,
	}
}

// rung identifies which level of the answer ladder produced an estimate.
// Lower is better; every query is answerable at some rung.
type rung int

const (
	// rungFresh flushed a refit before answering: the estimate reflects
	// every drained insert.
	rungFresh rung = iota
	// rungSnapshot answered from the current lock-free snapshot without
	// waiting on any in-flight refit — the steady-state rung.
	rungSnapshot
	// rungReservoir had no fit yet and answered with the raw reservoir
	// fraction — a pure-sampling estimate needing no build.
	rungReservoir
	// rungUniform had no data at all and answered with the uniform
	// assumption over the attribute domain.
	rungUniform
)

var rungNames = [...]string{
	rungFresh:     "fresh",
	rungSnapshot:  "snapshot",
	rungReservoir: "reservoir",
	rungUniform:   "uniform",
}

// attribute is one (tenant, name) estimator: the online engine, its
// bounded ingest queue, and the stream-cardinality counter used to scale
// selectivities into row estimates.
type attribute struct {
	tenant, name string
	cfg          AttrConfig
	est          *online.Estimator
	queue        *ingestQueue
	rows         atomic.Int64
}

type tenant struct {
	name   string
	bucket *tokenBucket
	mu     sync.RWMutex
	attrs  map[string]*attribute
}

// Server is the multi-tenant estimator service. All methods are safe for
// concurrent use.
type Server struct {
	cfg Options

	// global is the box-wide admission bucket (nil when GlobalRate is
	// unset): one token per admitted request, any tenant, checked before
	// the per-tenant quota.
	global *tokenBucket

	mu      sync.RWMutex
	tenants map[string]*tenant
	nAttrs  int

	inflight   atomic.Int64
	queueTotal atomic.Int64
	drainers   atomic.Int64
	draining   atomic.Bool
	// wg counts running drainers; every Add happens under an ingest
	// queue's lock, so Close, which closes every queue first, waits for
	// each drainer a push started.
	wg sync.WaitGroup
}

// builders assembles an attribute's degradation ladder: the configured
// primary method, then an equi-depth histogram, then pure sampling — the
// same Kernel→EquiDepth→Sampling order the fit path's robust ladder uses,
// each simpler and harder to break than the one above. core.Ladder
// steps down as robust.Build does: it skips a rung repeating the primary
// method and gives the equi-depth rung the normal-scale rule in place of
// a kernel-only one. Every rung fits the reservoir's sorted view through
// core.BuildSorted, which reads it in place instead of copying and
// sorting it again. The primary rung carries the
// FaultRefitPrimary injection site so the chaos suite can break it on
// demand.
func (c *AttrConfig) builders() (primary online.Builder, fallbacks []online.Builder) {
	opts := c.options()
	opts.Method = c.methodOrDefault()
	rungs := core.Ladder(opts, []core.Method{core.EquiDepth, core.Sampling})
	primary = func(samples []float64) (online.Fitted, error) {
		if err := faultinject.Check(FaultRefitPrimary); err != nil {
			return nil, err
		}
		return core.BuildSorted(samples, rungs[0])
	}
	for _, o := range rungs[1:] {
		fallbacks = append(fallbacks, func(samples []float64) (online.Fitted, error) {
			return core.BuildSorted(samples, o)
		})
	}
	return primary, fallbacks
}

// CreateAttr registers an attribute under a tenant. Creating an
// attribute that already exists with an identical configuration is a
// no-op (so clients and recovery can be idempotent); a differing
// configuration is ErrConflict. Like the other in-process entry points
// it runs the request core's shape check but charges no quota.
func (s *Server) CreateAttr(tenantName, attrName string, cfg AttrConfig) error {
	if s.draining.Load() {
		return ErrDraining
	}
	c := call{op: wire.OpCreateAttr, tenant: nameBytes(tenantName), attr: nameBytes(attrName), cfg: &cfg}
	if err := s.check(&c); err != nil {
		return err
	}
	return s.create(tenantName, attrName, cfg)
}

// create builds and registers an attribute whose request passed the
// shape check.
func (s *Server) create(tenantName, attrName string, cfg AttrConfig) error {
	primary, fallbacks := cfg.builders()
	est, err := online.New(primary, online.Config{
		ReservoirSize: cfg.ReservoirSize,
		RefitEvery:    cfg.RefitEvery,
		Seed:          cfg.Seed,
		Fallbacks:     fallbacks,
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	tn, ok := s.tenants[tenantName]
	if !ok {
		tn = &tenant{
			name:   tenantName,
			bucket: newTokenBucket(s.cfg.QuotaRate, s.cfg.QuotaBurst),
			attrs:  make(map[string]*attribute),
		}
		s.tenants[tenantName] = tn
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if existing, ok := tn.attrs[attrName]; ok {
		if existing.cfg == cfg {
			return nil
		}
		return fmt.Errorf("%w: %s/%s", ErrConflict, tenantName, attrName)
	}
	if s.nAttrs >= maxAttrs {
		return fmt.Errorf("%w: attribute limit %d reached", ErrOverQuota, maxAttrs)
	}
	a := &attribute{
		tenant: tenantName,
		name:   attrName,
		cfg:    cfg,
		est:    est,
		queue:  newIngestQueue(s.cfg.QueueCap, &s.wg),
	}
	tn.attrs[attrName] = a
	s.nAttrs++
	return nil
}

// tenantNamed returns the tenant called name, or nil. Indexing the map
// by string(bytes) is the compiler's no-copy special case, so a lookup
// from a wire frame's byte view allocates nothing.
func (s *Server) tenantNamed(name []byte) *tenant {
	s.mu.RLock()
	tn := s.tenants[string(name)]
	s.mu.RUnlock()
	return tn
}

// lookup is the request core's one (tenant, attribute) resolution.
func (s *Server) lookup(tenantName, attrName []byte) (*tenant, *attribute, error) {
	tn := s.tenantNamed(tenantName)
	if tn == nil {
		return nil, nil, fmt.Errorf("%w: tenant %q", ErrNotFound, string(tenantName))
	}
	tn.mu.RLock()
	a, ok := tn.attrs[string(attrName)]
	tn.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: attribute %q/%q", ErrNotFound, string(tenantName), string(attrName))
	}
	return tn, a, nil
}

// nameBytes views a name held as a string as the bytes the request core
// takes, without a copy; the core only ever reads names.
func nameBytes(name string) []byte {
	return unsafe.Slice(unsafe.StringData(name), len(name))
}

func (s *Server) attr(tenantName, attrName string) (*attribute, error) {
	_, a, err := s.lookup(nameBytes(tenantName), nameBytes(attrName))
	return a, err
}

// Admit charges a tenant's token bucket for a request of the given cost
// (payload size). On refusal it returns ErrOverQuota and the Retry-After
// duration the transports surface. Unknown tenants are charged only the
// box-wide bucket; the request core never admits one, because its
// lookup fails first.
func (s *Server) Admit(tenantName string, cost int) (time.Duration, error) {
	return s.admitBucket(s.tenantNamed(nameBytes(tenantName)), cost)
}

// admitBucket is the request core's one admission: the box-wide bucket,
// then the tenant's (skipped for a nil tenant).
func (s *Server) admitBucket(tn *tenant, cost int) (time.Duration, error) {
	// The box-wide bucket charges one token per request whoever sent it:
	// it models what the process can serve, so payload size (the
	// per-tenant fairness dimension) does not enter.
	if s.global != nil {
		if ok, retry := s.global.take(1, time.Now()); !ok {
			srvGlobalRejected.Inc()
			srvRejected.Inc()
			return retry, fmt.Errorf("%w: server at capacity", ErrOverQuota)
		}
	}
	if tn == nil {
		return 0, nil
	}
	ok, retry := tn.bucket.take(float64(cost), time.Now())
	if !ok {
		srvRejected.Inc()
		return retry, fmt.Errorf("%w: tenant %q", ErrOverQuota, tn.name)
	}
	srvAdmitted.Inc()
	return 0, nil
}

// validRange rejects NaN and inverted bounds — the request is malformed,
// not degradable.
func validRange(lo, hi float64) error {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("%w: NaN bound", ErrBadRange)
	}
	if lo > hi {
		return fmt.Errorf("%w: lo %v > hi %v", ErrBadRange, lo, hi)
	}
	return nil
}

// EstimateResult is one answered range query.
type EstimateResult struct {
	// Selectivity is the estimated fraction of the stream in [Lo, Hi].
	Selectivity float64 `json:"selectivity"`
	// Rows scales the selectivity by the attribute's ingested count.
	Rows float64 `json:"rows"`
	// Rung names the ladder level that produced the answer
	// (fresh | snapshot | reservoir | uniform).
	Rung string `json:"rung"`
	// Generation is the serving snapshot's generation (0 = no fit yet).
	Generation uint64 `json:"generation"`
	// Degraded reports that the answer came from a lower rung than the
	// request asked for (e.g. fresh=true answered from the snapshot).
	Degraded bool `json:"degraded,omitempty"`
}

// overloaded reports whether the server should shed optional work.
func (s *Server) overloaded() bool {
	return s.inflight.Load() > s.cfg.MaxInflight
}

// Estimate answers one range query through the degradation ladder
// (see estimate); ctx's deadline, if any, bounds the fresh rung's
// flush. Malformed ranges and unknown attributes error; nothing else
// does — the in-process entry points skip the request core's drain
// gate, admission and deadline check.
func (s *Server) Estimate(ctx context.Context, tenantName, attrName string, lo, hi float64, fresh bool) (EstimateResult, error) {
	c := call{op: wire.OpEstimate, tenant: nameBytes(tenantName), attr: nameBytes(attrName), lo: lo, hi: hi, ctx: ctx}
	c.deadline, _ = ctx.Deadline()
	_, a, err := s.resolve(&c)
	if err != nil {
		return EstimateResult{}, err
	}
	p := s.pin(&c, a, fresh)
	return p.estimate(lo, hi), nil
}

// pinned is one request's read of an attribute: the fit and generation
// from a single snapshot load, and the rung that read was reached on. A
// single estimate and every query of a batch answer from one pinned
// read, so a reply never pairs an answer with another fit's generation
// and never mixes generations (DESIGN.md §12).
type pinned struct {
	a               *attribute
	fit             online.Fitted
	gen             uint64
	rung, requested rung
}

// pin takes a request's read through the top of the degradation ladder:
//
//	fresh     — fresh=true and the budget allows: flush a refit (bounded
//	            by the request deadline), then read — the estimate
//	            reflects every drained insert.
//	snapshot  — read the current lock-free snapshot without waiting on
//	            any in-flight refit. This is the steady-state rung, and
//	            where fresh=true lands under overload, a tight deadline,
//	            or a failed flush.
//
// Below the fresh rung it never blocks, never fails and never
// allocates.
func (s *Server) pin(c *call, a *attribute, fresh bool) pinned {
	p := pinned{a: a, rung: rungSnapshot, requested: rungSnapshot}
	if fresh {
		p.requested = rungFresh
		if s.flush(c, a) {
			p.rung = rungFresh
		}
	}
	p.fit, p.gen = a.est.Current()
	return p
}

// estimate answers one checked range query from the pinned read, or,
// before the first fit, from the ladder's data rungs:
//
//	reservoir — no fit published yet: answer the raw reservoir fraction.
//	uniform   — no data at all: answer the uniform assumption over the
//	            attribute's domain.
//
// Only the first answer reports the fresh rung: a batch flushes once, and
// its other queries read the same snapshot a plain read would.
func (p *pinned) estimate(lo, hi float64) EstimateResult {
	r, requested := p.rung, p.requested
	p.rung, p.requested = rungSnapshot, rungSnapshot
	var sel float64
	if p.fit != nil {
		sel = p.fit.Selectivity(lo, hi)
	} else if in, total := p.a.est.ReservoirCount(lo, hi); total > 0 {
		sel = float64(in) / float64(total)
		r = rungReservoir
	} else {
		sel = uniformFraction(p.a.cfg.DomainLo, p.a.cfg.DomainHi, lo, hi)
		r = rungUniform
	}
	srvAnswersByRung[r].Inc()
	return EstimateResult{
		Selectivity: sel,
		Rows:        sel * float64(p.a.rows.Load()),
		Rung:        rungNames[r],
		Generation:  p.gen,
		Degraded:    r > requested,
	}
}

// flush runs the fresh rung's refit unless the server is overloaded or
// the deadline leaves less than DegradeDeadline. It is the one place the
// request core derives a context: from c.ctx (the HTTP request's, on
// that transport), bounded by c.deadline. A failed or abandoned flush is
// not an error: the ladder serves the snapshot it has.
func (s *Server) flush(c *call, a *attribute) bool {
	if s.overloaded() || (!c.deadline.IsZero() && time.Until(c.deadline) < s.cfg.DegradeDeadline) {
		return false
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, c.deadline)
		defer cancel()
	}
	return a.est.FlushContext(ctx) == nil
}

// RangeQuery is one [Lo, Hi] range.
type RangeQuery = wire.Range

// EstimateBatch answers a batch of queries against one attribute,
// amortising lookup and (with fresh) at most one flush over the whole
// batch. Any malformed query rejects the batch.
func (s *Server) EstimateBatch(ctx context.Context, tenantName, attrName string, queries []RangeQuery, fresh bool) ([]EstimateResult, error) {
	c := call{op: wire.OpEstimateBatch, tenant: nameBytes(tenantName), attr: nameBytes(attrName), queries: queries, ctx: ctx}
	c.deadline, _ = ctx.Deadline()
	_, a, err := s.resolve(&c)
	if err != nil {
		return nil, err
	}
	out := make([]EstimateResult, len(queries))
	p := s.pin(&c, a, fresh)
	for i, q := range queries {
		out[i] = p.estimate(q.Lo, q.Hi)
	}
	return out, nil
}

// uniformFraction is the bottom rung: the covered fraction of the domain
// under the uniform assumption, clipped to [0, 1].
func uniformFraction(dLo, dHi, lo, hi float64) float64 {
	if lo < dLo {
		lo = dLo
	}
	if hi > dHi {
		hi = dHi
	}
	if hi <= lo {
		return 0
	}
	return (hi - lo) / (dHi - dLo)
}

// IngestResult reports what happened to an ingest payload, counted as
// if its values had been pushed one at a time.
type IngestResult struct {
	// Queued values entered the attribute's queue: all of the payload.
	Queued int `json:"queued"`
	// Shed values, the oldest queued, were dropped to stay within the
	// queue's bound: values queued earlier first, then, for a payload
	// larger than the bound, the payload's own oldest. Over any run of
	// ingests, the values that reach the reservoir number Queued − Shed.
	Shed int `json:"shed"`
}

// Ingest validates and enqueues a batch of stream values. The call
// returns as soon as the values are queued — reservoir insertion and any
// refit happen on the attribute's drainer goroutine — so ingest latency
// is bounded by the queue push, not by a fit. Under pressure the queue
// sheds its oldest values and the count comes back to the client (and
// telemetry) instead of blocking.
func (s *Server) Ingest(tenantName, attrName string, values []float64) (IngestResult, error) {
	if s.draining.Load() {
		return IngestResult{}, ErrDraining
	}
	c := call{op: wire.OpIngest, tenant: nameBytes(tenantName), attr: nameBytes(attrName), values: values}
	_, a, err := s.resolve(&c)
	if err != nil {
		return IngestResult{}, err
	}
	return s.enqueue(a, values), nil
}

// enqueue pushes checked values onto a's queue, starting its drainer
// when the queue was idle.
func (s *Server) enqueue(a *attribute, values []float64) IngestResult {
	queued, shed, start := a.queue.push(values)
	if start {
		go s.drain(a)
	}
	a.rows.Add(int64(queued))
	if shed > 0 {
		srvShed.Add(int64(shed))
	}
	srvQueueDepth.Set(float64(s.queueTotal.Add(int64(queued - shed))))
	return IngestResult{Queued: queued, Shed: shed}
}

// drainBatch bounds how many queued values one InsertBatch takes; small
// enough to keep shutdown drains responsive, large enough to amortise the
// per-batch trigger checks.
const drainBatch = 512

// drain is an attribute's one writer while it has values queued: it
// moves them into the reservoir and retires when a pop finds the queue
// empty, so an idle attribute holds no goroutine and graceful shutdown
// never strands an accepted value.
func (s *Server) drain(a *attribute) {
	defer s.wg.Done()
	srvDrainers.Set(float64(s.drainers.Add(1)))
	var buf []float64
	for {
		vals, ok := a.queue.pop(buf, drainBatch)
		if !ok {
			break
		}
		buf = vals
		srvQueueDepth.Set(float64(s.queueTotal.Add(-int64(len(vals)))))
		if err := a.est.InsertBatch(vals); err != nil {
			// A refit failure: the values are in the reservoir and the
			// previous fit keeps serving — count it, keep draining.
			srvDrainDrop.Inc()
		}
	}
	srvDrainers.Set(float64(s.drainers.Add(-1)))
}

// attributes snapshots every attribute sorted by (tenant, name) — the
// deterministic order persistence and shutdown iterate in.
func (s *Server) attributes() []*attribute {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*attribute
	for _, tn := range s.tenants {
		tn.mu.RLock()
		for _, a := range tn.attrs {
			out = append(out, a)
		}
		tn.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tenant != out[j].tenant {
			return out[i].tenant < out[j].tenant
		}
		return out[i].name < out[j].name
	})
	return out
}

// Draining reports whether Close has begun; the HTTP layer refuses new
// work with 503 once it has.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close shuts the service down gracefully: stop admitting new work,
// close every ingest queue and wait (bounded by ctx) for the drainers to
// move every accepted value into its reservoir, and — when snapshotPath
// is non-empty — persist a crash-safe snapshot. Close fits nothing: the
// snapshot stores samples, not fits, and recovery refits each attribute
// once, so a final refit would be thrown away. Close is idempotent;
// concurrent calls after the first return immediately.
func (s *Server) Close(ctx context.Context, snapshotPath string) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	attrs := s.attributes()
	for _, a := range attrs {
		a.queue.close()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var firstErr error
	select {
	case <-drained:
	case <-ctx.Done():
		firstErr = fmt.Errorf("server: shutdown drain abandoned: %w", ctx.Err())
	}
	if snapshotPath != "" {
		if err := s.SaveSnapshot(snapshotPath); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats is the health-endpoint summary.
type Stats struct {
	Tenants    int   `json:"tenants"`
	Attributes int   `json:"attributes"`
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	Draining   bool  `json:"draining"`
}

// Stats summarises the service for /healthz.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	tenants, nAttrs := len(s.tenants), s.nAttrs
	s.mu.RUnlock()
	return Stats{
		Tenants:    tenants,
		Attributes: nAttrs,
		QueueDepth: s.queueTotal.Load(),
		Inflight:   s.inflight.Load(),
		Draining:   s.draining.Load(),
	}
}
