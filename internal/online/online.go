// Package online maintains a selectivity estimator over a live stream of
// records — the infrastructure behind the paper's second future-work item
// (applying kernel estimators to online aggregate processing).
//
// An Estimator owns a reservoir sample of the stream and a fitted base
// estimator built from it. Refits happen once the reservoir fills and
// then on a configurable cadence; between refits, queries are answered
// by the existing fit, so the insert path stays O(1) amortised.
//
// # Serving engine
//
// The serve path is lock-free: the current fit and a generation counter
// live together in one immutable snapshot published through an
// atomic.Pointer. A query is one atomic load plus the fit's own
// Selectivity — no locks, no allocations, and no way to observe a fit
// paired with another fit's generation. Refits build the
// replacement estimator entirely off-lock from a sorted view of the
// reservoir (the reservoir merges the records it replaced since the last
// view into that view rather than sorting every record again) and
// publish it with a single pointer swap; Go's garbage collector
// retires the old snapshot once the last in-flight reader drops it,
// which is the whole memory-reclamation story RCU schemes labour over.
// A single-flight guard coalesces concurrent refit triggers into one
// build (Flush still waits for and then supersedes an in-flight build;
// FlushContext bounds that wait with a deadline and abandons a stuck
// build to the background). Inserts take the reservoir's one lock once
// per run of records; a refit holds it only while it takes the
// reservoir's log or copies its contents. See DESIGN.md §11.
package online

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"selest/internal/sample"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// Fitted is the estimator surface a fit must provide.
type Fitted interface {
	Selectivity(a, b float64) float64
	Name() string
}

// Builder constructs a fresh estimator from the current sample. The
// samples arrive sorted ascending (in fsort's radix-key order) and are
// shared: the reservoir keeps them as the base it merges the next sorted
// view from, so a builder must not modify them. A fit may alias them.
type Builder func(samples []float64) (Fitted, error)

// Config parameterises an online estimator.
type Config struct {
	// ReservoirSize is the maintained sample size. Zero defaults to 2000
	// (the paper's sample size).
	ReservoirSize int
	// RefitEvery triggers a refit after this many inserts. Zero defaults
	// to 10× the reservoir size; negative disables cadence-based refits.
	RefitEvery int
	// Seed drives the reservoir's RNG.
	Seed uint64

	// Fallbacks are builders tried in order once the current builder has
	// failed degradeAfter consecutive refits — typically simpler,
	// harder-to-break fits (an equi-depth histogram, pure sampling).
	Fallbacks []Builder
}

// The degradation ladder's strike counts. After degradeAfter consecutive
// failed refits the estimator moves to the next Fallbacks builder; after
// promoteAfter consecutive clean refits on a fallback it climbs one rung
// back toward the primary builder and tries it at the next refit.
// degradeAfter strikes on the promoted rung demote it again, so a
// still-broken primary flaps at a bounded rate rather than on every
// refit.
const (
	degradeAfter = 3
	promoteAfter = 4
)

func (c *Config) applyDefaults() {
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 2000
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = 10 * c.ReservoirSize
	}
}

// snapshot is the immutable unit of publication: a fit and the
// generation that produced it. Snapshots are never mutated after the
// atomic swap, so a reader holding one sees a consistent (fit,
// generation) pair no matter how many refits land while it works.
type snapshot struct {
	fit        Fitted
	generation uint64
}

// Estimator is a self-maintaining online selectivity estimator. It is
// safe for concurrent use: queries read the current snapshot through an
// atomic pointer (no locks, no allocations), inserts admit whole runs
// under the reservoir's lock, and refits run off-lock behind a
// single-flight guard.
//
// Refit failures never take down the query path: the previous snapshot
// keeps serving, builder panics are contained into errors, and after
// degradeAfter consecutive failures the estimator degrades to the next
// Config.Fallbacks builder.
type Estimator struct {
	builders []Builder
	cfg      Config

	// snap is the serving state. nil until the first successful fit.
	snap atomic.Pointer[snapshot]

	reservoir *sample.Reservoir

	inserts    atomic.Int64
	sinceRefit atomic.Int64

	// refitSlot is the single-flight guard: a 1-slot semaphore whose
	// holder is the one goroutine building a replacement snapshot.
	// Insert-path triggers try-acquire and coalesce when a build is
	// already in flight; Flush blocks until the in-flight build finishes,
	// then builds again so its caller observes a fit of the current
	// reservoir. It is a channel rather than a mutex so FlushContext can
	// select the acquisition against a context deadline and abandon a
	// stuck build instead of blocking forever. The ladder state below is
	// written only while holding the slot but read via atomics so
	// accessors never block behind a slow build.
	refitSlot    chan struct{}
	refits       atomic.Int64
	failedRefits atomic.Int64
	consecFails  atomic.Int64
	consecOK     atomic.Int64
	builderIdx   atomic.Int64
	lastErr      atomic.Pointer[error]
}

// New returns an online estimator that fits with build. The estimator
// answers 0 for every query until the first record arrives.
func New(build Builder, cfg Config) (*Estimator, error) {
	if build == nil {
		return nil, fmt.Errorf("online: nil builder")
	}
	cfg.applyDefaults()
	if cfg.ReservoirSize < 2 {
		return nil, fmt.Errorf("online: reservoir size %d too small", cfg.ReservoirSize)
	}
	builders := make([]Builder, 0, 1+len(cfg.Fallbacks))
	builders = append(builders, build)
	for _, fb := range cfg.Fallbacks {
		if fb == nil {
			return nil, fmt.Errorf("online: nil fallback builder")
		}
		builders = append(builders, fb)
	}
	return &Estimator{
		builders:  builders,
		cfg:       cfg,
		reservoir: sample.NewReservoir(xrand.New(cfg.Seed), cfg.ReservoirSize),
		refitSlot: make(chan struct{}, 1),
	}, nil
}

// Insert offers one stream record; it is InsertBatch of that one record.
func (e *Estimator) Insert(v float64) error {
	return e.InsertBatch([]float64{v})
}

// InsertBatch offers a batch of stream records, refitting when the
// cadence says so, and reports the first refit error encountered, if
// any. The first refit happens once the reservoir is full (or at the
// first cadence boundary for short streams).
//
// The batch is admitted in runs that end exactly where a per-record check
// could fire — at the record that fills the reservoir before the first
// fit, at the next RefitEvery boundary — and each run enters the
// reservoir through one Reservoir.AddBatch, with one update of each
// counter. The checks run at the end of each run, so a single writer
// gets the same reservoir, the same refits and the same fits as feeding
// the records one at a time.
// The insert that crosses a refit boundary runs the build itself —
// off-lock, so concurrent inserts and queries proceed underneath it — and
// returns any build error; inserts that cross a boundary while a build is
// already in flight coalesce into it and return nil.
func (e *Estimator) InsertBatch(vs []float64) error {
	var firstErr error
	for len(vs) > 0 {
		m := e.runLength(len(vs))
		if err := e.admitRun(vs[:m]); err != nil && firstErr == nil {
			firstErr = err
		}
		vs = vs[m:]
	}
	return firstErr
}

// runLength returns how many of the next n records can be admitted as
// one run: up to and including the first record at which a trigger check
// could fire, and never fewer than one.
func (e *Estimator) runLength(n int) int {
	if e.snap.Load() == nil {
		// Only the fill check runs before the first fit; while the
		// reservoir fills, every record adds exactly one resident.
		return clampRun(n, e.cfg.ReservoirSize-e.reservoir.Len())
	}
	if e.cfg.RefitEvery > 0 {
		n = clampRun(n, e.cfg.RefitEvery-int(e.sinceRefit.Load()))
	}
	return n
}

// clampRun caps a run of n records at the distance to a trigger
// boundary; a boundary already reached leaves a run of one record.
func clampRun(n, toBoundary int) int {
	return max(1, min(n, toBoundary))
}

// admitRun inserts one run of records and then runs the trigger checks
// once, as of its last record.
func (e *Estimator) admitRun(run []float64) error {
	m := int64(len(run))
	_, evicted := e.reservoir.AddBatch(run)
	e.inserts.Add(m)
	since := e.sinceRefit.Add(m)
	if telemetry.Enabled() {
		onlineInserts.Add(m)
		onlineEvictions.Add(int64(evicted))
	}

	switch {
	case e.snap.Load() == nil:
		if e.reservoir.Len() >= e.cfg.ReservoirSize {
			return e.tryRefit()
		}
	case e.cfg.RefitEvery > 0 && since >= int64(e.cfg.RefitEvery):
		return e.tryRefit()
	}
	return nil
}

// Flush forces a refit from the current reservoir (e.g. before a batch of
// optimisation decisions, or at end of stream for short streams that
// never filled the reservoir). If a coalesced build is already in flight,
// Flush waits for it to finish and then builds again, so on return the
// snapshot reflects a reservoir state no older than the call.
func (e *Estimator) Flush() error {
	return e.FlushContext(context.Background())
}

// FlushContext is Flush with a deadline: the context bounds both the wait
// for an in-flight build's single-flight slot and the refit itself. When
// the context expires mid-build the call returns ctx's error immediately
// and the build keeps running in the background — it publishes its
// snapshot if it eventually succeeds — so a shutdown deadline can abandon
// a stuck refit instead of blocking forever while still never discarding
// a finished fit.
func (e *Estimator) FlushContext(ctx context.Context) error {
	if e.reservoir.Len() == 0 {
		return fmt.Errorf("online: no records to fit")
	}
	select {
	case e.refitSlot <- struct{}{}:
	case <-ctx.Done():
		onlineFlushAbandoned.Inc()
		return fmt.Errorf("online: flush abandoned waiting for in-flight refit: %w", ctx.Err())
	}
	if ctx.Done() == nil {
		// No deadline to race: run the build inline and skip the
		// goroutine handoff.
		defer func() { <-e.refitSlot }()
		return e.refit()
	}
	done := make(chan error, 1)
	go func() {
		done <- e.refit()
		<-e.refitSlot
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		onlineFlushAbandoned.Inc()
		return fmt.Errorf("online: flush abandoned mid-refit (build continues in background): %w", ctx.Err())
	}
}

// tryRefit is the insert path's single-flight entry: run the refit if no
// build is in flight, otherwise coalesce into the one that is.
func (e *Estimator) tryRefit() error {
	select {
	case e.refitSlot <- struct{}{}:
	default:
		onlineRefitCoalesced.Inc()
		return nil
	}
	defer func() { <-e.refitSlot }()
	return e.refit()
}

// refit rebuilds the fit; the caller holds the refitSlot (and nothing
// else — queries and inserts proceed throughout). On failure the previous
// snapshot keeps serving: the failure is counted against the current
// builder and, once the strike budget is spent, the estimator degrades to
// the next fallback builder and retries it immediately so serving
// freshness recovers without waiting out another refit cadence. On
// success, promoteAfter consecutive clean refits climb one rung back
// toward the primary builder.
func (e *Estimator) refit() error {
	start := time.Now()
	// An insert bumps this count after it reaches the reservoir, so the
	// count read before the sample is captured is inserts the sample
	// holds; only those are taken off when the refit settles, and inserts
	// that land while the build runs count toward the next one.
	seenRefit := e.sinceRefit.Load()
	// Taking the log or copying the contents is the only section that
	// holds the ingest lock — the sole stall any writer can observe from
	// a refit. Record it as the serving engine's stall number.
	view := e.reservoir.Sorted()
	onlineRefitStallNanos.ObserveDuration(view.Capture)
	if view.Merged < 0 {
		onlineRefitSortsFull.Inc()
	} else {
		onlineRefitSortsMerge.Inc()
		onlineRefitMergedValues.Observe(int64(view.Merged))
	}
	smp := view.Values

	degradedThisRefit := false
	fit, err := e.buildSafe(smp)
	for err != nil {
		e.failedRefits.Add(1)
		fails := e.consecFails.Add(1)
		e.consecOK.Store(0)
		e.setLastErr(err)
		onlineRefitFails.Inc()
		if fails < degradeAfter || int(e.builderIdx.Load())+1 >= len(e.builders) {
			// Back off until the next cadence boundary instead of
			// retrying the failed fit on every insert.
			e.sinceRefit.Add(-seenRefit)
			onlineBackoffs.Inc()
			return fmt.Errorf("online: refit (fit kept serving): %w", err)
		}
		if e.builderIdx.Add(1) == 1 {
			addDegraded(1)
		}
		e.consecFails.Store(0)
		degradedThisRefit = true
		onlineDegradations.Inc()
		fit, err = e.buildSafe(smp)
	}

	old := e.snap.Load()
	var gen uint64 = 1
	if old != nil {
		gen = old.generation + 1
	}
	// One atomic swap publishes the (fit, generation) pair; readers
	// either see the old snapshot whole or the new one whole.
	e.snap.Store(&snapshot{fit: fit, generation: gen})
	e.sinceRefit.Add(-seenRefit)
	e.refits.Add(1)
	e.consecFails.Store(0)
	onlineRefits.Inc()
	onlineSnapshotSwaps.Inc()
	onlineRefitNanos.ObserveSince(start)
	// Ladder recovery: enough consecutive clean refits on a fallback rung
	// earn one step back toward the primary builder. The rescue build
	// that accompanied a demotion does not count — the streak starts with
	// the first refit that began on the rung — and the climb happens
	// after the publish, so the next refit, not this one, pays the risk
	// of the better builder failing again.
	if e.builderIdx.Load() > 0 {
		if degradedThisRefit {
			e.consecOK.Store(0)
		} else if e.consecOK.Add(1) >= promoteAfter {
			if e.builderIdx.Add(-1) == 0 {
				addDegraded(-1)
			}
			e.consecOK.Store(0)
			onlinePromotions.Inc()
		}
	}
	return nil
}

// buildSafe invokes the current builder with panic containment, so a
// builder bug degrades the refit instead of crashing the insert path.
func (e *Estimator) buildSafe(smp []float64) (fit Fitted, err error) {
	defer func() {
		if r := recover(); r != nil {
			fit, err = nil, fmt.Errorf("builder panic: %v", r)
		}
	}()
	fit, err = e.builders[e.builderIdx.Load()](smp)
	if err == nil && fit == nil {
		err = fmt.Errorf("builder returned no fit")
	}
	return fit, err
}

func (e *Estimator) setLastErr(err error) {
	e.lastErr.Store(&err)
}

// Selectivity answers from the current snapshot; 0 before the first fit.
// It is one atomic load plus the fit's own query — no locks and no
// allocations — so it cannot be stalled by an in-flight refit. Callers
// that must distinguish "no fit yet" from a genuine zero answer should
// use SelectivityOK.
func (e *Estimator) Selectivity(a, b float64) float64 {
	s := e.snap.Load()
	if s == nil {
		return 0
	}
	return s.fit.Selectivity(a, b)
}

// SelectivityOK answers from the current snapshot, reporting whether a
// fit exists: (0, false) before the first fit, (σ̂, true) after — so a
// genuine 0-selectivity answer is distinguishable from "no data yet".
func (e *Estimator) SelectivityOK(a, b float64) (float64, bool) {
	s := e.snap.Load()
	if s == nil {
		return 0, false
	}
	return s.fit.Selectivity(a, b), true
}

// Current returns the serving snapshot's fit and its generation from one
// atomic load: (nil, 0) before the first fit. A caller that reports a
// generation with its answers, or answers several queries as one reply,
// reads both here, so a refit published in between cannot pair an
// answer with another fit's generation or mix generations in a reply.
func (e *Estimator) Current() (Fitted, uint64) {
	s := e.snap.Load()
	if s == nil {
		return nil, 0
	}
	return s.fit, s.generation
}

// Ready reports whether a fit exists to answer queries.
func (e *Estimator) Ready() bool { return e.snap.Load() != nil }

// Generation returns the serving snapshot's generation: 0 before the
// first fit, then incrementing by one at every published refit. It is
// monotone — the soak tests pin this — so callers can cheaply detect
// whether the model changed between two reads.
func (e *Estimator) Generation() uint64 {
	s := e.snap.Load()
	if s == nil {
		return 0
	}
	return s.generation
}

// Restore refills the reservoir from a saved sample of a stream of seen
// records (see sample.Reservoir.Restore) and fits it once, as
// warm-start recovery does before any record arrives. The values are
// not inserts: Inserts and selest_online_inserts_total do not move, and
// no cadence trigger fires.
func (e *Estimator) Restore(values []float64, seen int) error {
	e.reservoir.Restore(values, seen)
	return e.Flush()
}

// Seen returns the length of the stream the reservoir samples: the
// records inserted plus the stream length a Restore carried over.
func (e *Estimator) Seen() int { return e.reservoir.Seen() }

// Refits returns how many times the estimator has been rebuilt.
func (e *Estimator) Refits() int { return int(e.refits.Load()) }

// Inserts returns how many records have been offered.
func (e *Estimator) Inserts() int { return int(e.inserts.Load()) }

// FailedRefits returns how many refit attempts have failed over the
// estimator's life (the previous fit kept serving through each).
func (e *Estimator) FailedRefits() int { return int(e.failedRefits.Load()) }

// ConsecutiveFailures returns the current builder's unbroken failure
// streak; degradeAfter of these move the estimator down the ladder.
func (e *Estimator) ConsecutiveFailures() int { return int(e.consecFails.Load()) }

// DegradationLevel returns how many rungs down the fallback ladder the
// estimator currently builds from: 0 is the primary builder.
func (e *Estimator) DegradationLevel() int { return int(e.builderIdx.Load()) }

// LastError returns the most recent refit failure, or nil.
func (e *Estimator) LastError() error {
	if p := e.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// ReservoirValues returns a copy of the current reservoir contents.
// Callers that only need a count should use ReservoirLen or
// ReservoirCount, which copy nothing.
func (e *Estimator) ReservoirValues() []float64 {
	return e.reservoir.Snapshot()
}

// ReservoirSorted returns the reservoir's contents in sorted order: the
// view a refit fits, made as sample.Reservoir.Sorted makes it, so when
// few records changed since the last view it merges them into that view
// instead of copying and sorting every record. The slice is shared with
// the reservoir and must not be modified.
func (e *Estimator) ReservoirSorted() []float64 { return e.reservoir.Sorted().Values }

// ReservoirLen returns how many records the reservoir currently holds.
func (e *Estimator) ReservoirLen() int { return e.reservoir.Len() }

// ReservoirCount returns how many reservoir records lie in [lo, hi] and
// how many the reservoir holds, counted in place. This is the serving
// path's cheapest data rung: when no fit has been published yet, in/total
// is a consistent pure-sampling estimate that needs no build and no copy.
func (e *Estimator) ReservoirCount(lo, hi float64) (in, total int) {
	return e.reservoir.Count(lo, hi)
}

// Name identifies the estimator in experiment output.
func (e *Estimator) Name() string {
	s := e.snap.Load()
	if s == nil {
		return "online(unfitted)"
	}
	return "online(" + s.fit.Name() + ")"
}
