package online

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/internal/core"
	"selest/internal/sample"
	"selest/internal/xrand"
)

func TestSelectivityOKAndReady(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if e.Ready() {
		t.Fatal("fresh estimator claims Ready")
	}
	if s, ok := e.SelectivityOK(0, 1000); ok || s != 0 {
		t.Fatalf("unfitted SelectivityOK = (%v, %v), want (0, false)", s, ok)
	}
	if e.Generation() != 0 {
		t.Fatalf("unfitted Generation = %d", e.Generation())
	}
	r := xrand.New(1)
	for i := 0; i < 50; i++ {
		if err := e.Insert(r.Float64() * 1000); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Ready() {
		t.Fatal("estimator not Ready after the reservoir filled")
	}
	if e.Generation() != 1 {
		t.Fatalf("Generation = %d after first fit", e.Generation())
	}
	s, ok := e.SelectivityOK(0, 1000)
	if !ok || s <= 0 {
		t.Fatalf("fitted SelectivityOK = (%v, %v)", s, ok)
	}
	// A genuinely empty range now answers (0, true) — distinguishable
	// from the unfitted (0, false).
	if s, ok := e.SelectivityOK(5000, 6000); !ok || s != 0 {
		t.Fatalf("out-of-domain SelectivityOK = (%v, %v), want (0, true)", s, ok)
	}
}

// TestSnapshotMatchesLockedBitForBit drives the snapshot engine and the
// preserved RWMutex implementation through the same drifting stream
// (same seed) and pins that every probed answer is identical
// bit for bit — the snapshot design changes the concurrency story, not
// one bit of the estimate. The reference always takes the stream one
// Insert at a time; the engine takes it the same way, or as InsertBatch
// runs of 1–700 records that cross the fill and RefitEvery boundaries,
// which must not move a bit either. The stream runs long enough that
// late refits merge the few records the reservoir replaced into the
// previous sorted sample, while the reference hands its builder
// reservoir-order copies, as the engine did before it kept a sorted
// view. Kernel, beta-kernel and sampling fits are all pinned.
func TestSnapshotMatchesLockedBitForBit(t *testing.T) {
	cfg := Config{ReservoirSize: 200, RefitEvery: 600, Seed: 42}
	r := xrand.New(7)
	stream := make([]float64, 18000)
	for i := range stream {
		// Regimes alternate every 500 records — the whole domain, its top
		// tenth, its bottom tenth — so successive cadence refits fit
		// different samples.
		stream[i] = r.Float64() * 1000
		switch (i / 500) % 3 {
		case 1:
			stream[i] = 900 + r.Float64()*100
		case 2:
			stream[i] = r.Float64() * 100
		}
	}
	// Run lengths: one record at a time, or random runs of 1–700.
	perRecord := func() int { return 1 }
	rl := xrand.New(11)
	randomRuns := func() int { return 1 + rl.Intn(700) }

	probes := []struct{ a, b float64 }{{0, 1000}, {100, 250}, {400, 401}, {900, 1000}, {0, 0}}
	// The engine's builders fit the sorted view in place through
	// core.BuildSorted; the reference's sort their reservoir-order copy
	// through core.Build.
	through := func(opts core.Options) (engine, reference Builder) {
		return func(samples []float64) (Fitted, error) { return core.BuildSorted(samples, opts) },
			func(samples []float64) (Fitted, error) { return core.Build(samples, opts) }
	}
	beta, betaRef := through(core.Options{Method: core.BetaKernel, Rule: core.BetaClosedForm, DomainLo: 0, DomainHi: 1000})
	sampling, samplingRef := through(core.Options{Method: core.Sampling, DomainLo: 0, DomainHi: 1000})
	for _, bld := range []struct {
		suffix            string // of the subtest names; the kernel's are the bare mode names
		engine, reference Builder
	}{
		{"", kernelBuilder, kernelBuilder},
		{"-beta-closed-form", beta, betaRef},
		{"-sampling", sampling, samplingRef},
	} {
		for _, mode := range []struct {
			name string
			run  func() int
		}{{"Insert", perRecord}, {"InsertBatch", randomRuns}} {
			t.Run(mode.name+bld.suffix, func(t *testing.T) {
				engine, err := New(bld.engine, cfg)
				if err != nil {
					t.Fatal(err)
				}
				locked := newLocked(bld.reference, cfg)
				check := func(at int) {
					t.Helper()
					for _, p := range probes {
						a := engine.Selectivity(p.a, p.b)
						b := locked.Selectivity(p.a, p.b)
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("after %d records, probe (%g,%g): %v != %v", at, p.a, p.b, a, b)
						}
					}
					if engine.Refits() != locked.Refits() || engine.Generation() != uint64(locked.Refits()) {
						t.Fatalf("after %d records: refits %d (generation %d) vs %d",
							at, engine.Refits(), engine.Generation(), locked.Refits())
					}
				}
				mergesBefore := onlineRefitSortsMerge.Value()
				runs := 0
				for i := 0; i < len(stream); {
					m := min(mode.run(), len(stream)-i)
					run := stream[i : i+m]
					var errA error
					if m == 1 {
						errA = engine.Insert(run[0])
					} else {
						errA = engine.InsertBatch(run)
					}
					var errB error
					for _, v := range run {
						if err := locked.Insert(v); err != nil && errB == nil {
							errB = err
						}
					}
					if (errA == nil) != (errB == nil) {
						t.Fatalf("records [%d, %d): error mismatch: %v vs %v", i, i+m, errA, errB)
					}
					i += m
					runs++
					if m > 1 || i%37 == 0 {
						check(i)
					}
				}
				check(len(stream))
				if engine.Refits() < 5 {
					t.Fatalf("stream exercised only %d refits", engine.Refits())
				}
				if onlineRefitSortsMerge.Value() == mergesBefore {
					t.Fatal("no refit merged into the previous sorted sample")
				}
				if mode.name == "InsertBatch" && runs > len(stream)/100 {
					t.Fatalf("%d runs over %d records: runs too short to cross boundaries", runs, len(stream))
				}
				if err := engine.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := locked.Flush(); err != nil {
					t.Fatal(err)
				}
				check(len(stream))
			})
		}
	}
}

// buildFit records which build made it, so readers can detect a torn
// (fit, generation) pair.
type buildFit struct{ build uint64 }

func (f *buildFit) Selectivity(a, b float64) float64 { return 0.5 }
func (f *buildFit) Name() string                     { return "build" }

// TestNoTornSnapshotPair hammers refits while readers load the snapshot
// and verify the fit they got belongs to the generation they got. Builds
// are serialised and all succeed, so build k publishes generation k: a
// torn pair (new fit with old generation or vice versa) fails
// immediately; under a two-field design this is exactly what a reader
// between the two writes could observe without the lock.
func TestNoTornSnapshotPair(t *testing.T) {
	var builds atomic.Uint64
	build := func(samples []float64) (Fitted, error) {
		return &buildFit{build: builds.Add(1)}, nil
	}
	e, err := New(build, Config{ReservoirSize: 64, RefitEvery: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.snap.Load()
				if s == nil {
					continue
				}
				if s.generation < lastGen {
					panic("generation went backwards")
				}
				lastGen = s.generation
				if s.fit.(*buildFit).build != s.generation {
					panic("torn snapshot: fit does not match generation")
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := xrand.New(uint64(w))
			for i := 0; i < 20000; i++ {
				e.Insert(r.Float64() * 1000)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if e.Refits() < 2 {
		t.Fatalf("only %d refits exercised", e.Refits())
	}
}

// TestCoalesceAndFlushWaits gates a builder on a channel to hold a build
// in flight, then pins the single-flight contract: cadence triggers that
// land during the build coalesce into it (no second build starts, the
// trigger returns nil), while Flush blocks until the in-flight build
// publishes and then builds again itself.
func TestCoalesceAndFlushWaits(t *testing.T) {
	gate := make(chan struct{})
	inFlight := make(chan struct{}, 8)
	var builds atomic.Int32
	build := func(samples []float64) (Fitted, error) {
		if builds.Add(1) > 1 {
			inFlight <- struct{}{}
			<-gate
		}
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{ReservoirSize: 10, RefitEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // build 1: the fill fit, ungated
		if err := e.Insert(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Generation() != 1 {
		t.Fatalf("Generation = %d after fill fit", e.Generation())
	}

	// Cross the next cadence boundary from a goroutine; its build blocks
	// on the gate while holding only the single-flight guard.
	var trigger sync.WaitGroup
	trigger.Add(1)
	go func() {
		defer trigger.Done()
		for i := 0; i < 10; i++ {
			e.Insert(float64(i))
		}
	}()
	<-inFlight

	// Inserts during the in-flight build keep crossing the boundary:
	// they must coalesce — nil error, no extra build, query path live.
	coalescedBefore := onlineRefitCoalesced.Value()
	for i := 0; i < 25; i++ {
		if err := e.Insert(float64(i)); err != nil {
			t.Fatalf("coalesced insert returned %v", err)
		}
		if s, ok := e.SelectivityOK(0, 9); !ok || s <= 0 {
			t.Fatal("query path stalled during in-flight build")
		}
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("%d builds started during in-flight build, want 2", got)
	}
	if onlineRefitCoalesced.Value() == coalescedBefore {
		t.Fatal("coalesced triggers not counted")
	}
	if e.Generation() != 1 {
		t.Fatalf("Generation = %d before the gated build published", e.Generation())
	}

	// Flush must wait on the in-flight build, then build again.
	flushed := make(chan error, 1)
	go func() { flushed <- e.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned %v while a build was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	trigger.Wait()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	// Build 2 published generation 2; Flush's own build published 3.
	if e.Generation() != 3 {
		t.Fatalf("Generation = %d after flush, want 3", e.Generation())
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("builds = %d after flush, want 3", got)
	}
}

// TestServeSoakThroughDegradation is the -race soak: writers insert,
// flushers force refits, and readers hammer the query surface while the
// primary builder fails permanently partway through and serving degrades
// to the fallback. Pinned invariants: generations are monotone from
// every reader's viewpoint, and after the first fit no query ever
// regresses to the unfitted (0, false) answer.
func TestServeSoakThroughDegradation(t *testing.T) {
	var okBuilds atomic.Int32
	primary := func(samples []float64) (Fitted, error) {
		if okBuilds.Add(1) > 3 {
			return nil, errors.New("primary down")
		}
		return sample.NewPureEstimator(samples), nil
	}
	fallback := func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(primary, Config{
		ReservoirSize: 64, RefitEvery: 128, Seed: 9,
		Fallbacks: []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	perWriter := 30000
	if testing.Short() {
		perWriter = 5000
	}
	var writersWG sync.WaitGroup
	stop := make(chan struct{})
	ready := make(chan struct{})
	var readyOnce sync.Once

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			r := xrand.New(uint64(w + 1))
			for i := 0; i < perWriter; i++ {
				e.Insert(r.Float64() * 1000) // failures expected mid-soak
				if e.Ready() {
					readyOnce.Do(func() { close(ready) })
				}
			}
		}(w)
	}
	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() { // flusher
		defer auxWG.Done()
		<-ready
		for {
			select {
			case <-stop:
				return
			default:
				e.Flush() // errors expected while the ladder degrades
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var readersWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readersWG.Add(1)
		go func(g int) {
			defer readersWG.Done()
			<-ready
			r := xrand.New(uint64(100 + g))
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen := e.Generation()
				if gen < lastGen {
					panic("generation went backwards")
				}
				lastGen = gen
				a := r.Float64() * 900
				s, ok := e.SelectivityOK(a, a+100)
				if !ok {
					panic("query regressed to unfitted after first fit")
				}
				if s < 0 || s > 1 || math.IsNaN(s) {
					panic("selectivity out of range")
				}
				e.Name()
				e.DegradationLevel()
			}
		}(g)
	}

	wgDone := make(chan struct{})
	go func() { writersWG.Wait(); close(wgDone) }()
	wedged := time.After(120 * time.Second)
	select {
	case <-wgDone:
	case <-wedged:
		t.Fatal("soak wedged")
	}
	// The writers can finish before the primary has failed three times:
	// the goroutine holding the refit slot may be descheduled while every
	// trigger coalesces into it, and then no insert is left to trigger
	// another. And while the primary stays down the rung flaps (promote,
	// three strikes, demote). So stop the flusher, then flush from this
	// goroutine alone until the ladder sits on the fallback.
	close(stop)
	auxWG.Wait()
	for e.DegradationLevel() != 1 {
		select {
		case <-wedged:
			t.Fatal("soak wedged")
		default:
			e.Flush() // errors expected while the ladder degrades
		}
	}
	readersWG.Wait()

	if e.Inserts() != writers*perWriter {
		t.Fatalf("Inserts = %d, want %d", e.Inserts(), writers*perWriter)
	}
	if e.DegradationLevel() != 1 {
		t.Fatalf("DegradationLevel = %d, want 1 (fallback serving)", e.DegradationLevel())
	}
	if e.FailedRefits() == 0 {
		t.Fatal("soak never exercised a failed refit")
	}
	if s, ok := e.SelectivityOK(0, 1000); !ok || s <= 0 {
		t.Fatalf("final SelectivityOK = (%v, %v)", s, ok)
	}
}

// TestInsertBatch pins that the batch entry point feeds every record and
// surfaces the first refit error.
func TestInsertBatch(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 500)
	r := xrand.New(3)
	for i := range batch {
		batch[i] = r.Float64() * 1000
	}
	if err := e.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if e.Inserts() != len(batch) {
		t.Fatalf("Inserts = %d, want %d", e.Inserts(), len(batch))
	}
	if !e.Ready() {
		t.Fatal("batch insert never fitted")
	}

	boom := errors.New("boom")
	bad, err := New(func([]float64) (Fitted, error) { return nil, boom }, Config{ReservoirSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.InsertBatch(batch[:20]); !errors.Is(err, boom) {
		t.Fatalf("InsertBatch error = %v, want %v", err, boom)
	}
}
