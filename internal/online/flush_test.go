package online

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"selest/internal/sample"
	"selest/internal/xrand"
)

func fillEstimator(t *testing.T, e *Estimator, n int) {
	t.Helper()
	r := xrand.New(7)
	for i := 0; i < n; i++ {
		if err := e.Insert(r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushContextAbandonsStuckRefit pins the shutdown property: a
// deadline'd FlushContext returns once the context expires even though
// the builder is wedged, and the abandoned build still publishes its
// snapshot when it eventually finishes.
func TestFlushContextAbandonsStuckRefit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	build := func(samples []float64) (Fitted, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release // wedged until the test releases it
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{ReservoirSize: 16, RefitEvery: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	for i := 0; i < 8; i++ { // below capacity: no auto refit
		if err := e.Insert(r.Float64()); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = e.FlushContext(ctx)
	if err == nil {
		t.Fatal("FlushContext returned nil while the builder was wedged")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned flush error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("FlushContext blocked %v past its 30ms deadline", elapsed)
	}
	if e.Ready() {
		t.Fatal("snapshot published before the builder finished")
	}

	// The abandoned build continues in the background: releasing the
	// builder must let it publish.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !e.Ready() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !e.Ready() {
		t.Fatal("abandoned build never published its snapshot")
	}
	// And the single-flight slot was released: a fresh Flush succeeds.
	if err := e.Flush(); err != nil {
		t.Fatalf("flush after abandoned build: %v", err)
	}
}

// TestFlushContextWaitsOutInFlightBuild pins that a second FlushContext
// whose deadline expires while another flush holds the single-flight slot
// gives up with the context error instead of queueing forever.
func TestFlushContextTimesOutWaitingForSlot(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	build := func(samples []float64) (Fitted, error) {
		once.Do(func() { close(entered) })
		<-release
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{ReservoirSize: 16, RefitEvery: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillEstimator(t, e, 8)

	go e.Flush() // takes the slot and wedges
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.FlushContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slot wait error = %v, want context.DeadlineExceeded", err)
	}
	close(release)
}

// TestFlushBackwardsCompatible pins that the wrapper keeps the old
// blocking semantics: no deadline, build runs inline, errors surface.
func TestFlushBackwardsCompatible(t *testing.T) {
	boom := errors.New("boom")
	builds := 0
	build := func(samples []float64) (Fitted, error) {
		builds++
		if builds == 1 {
			return nil, boom
		}
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{ReservoirSize: 16, RefitEvery: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillEstimator(t, e, 8)
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Fatalf("first flush error = %v, want wrapped boom", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if !e.Ready() {
		t.Fatal("flush did not publish")
	}
}

// TestPromoteAfterClimbsLadder drives the estimator down a rung with
// failures, then heals the primary builder and pins that promoteAfter
// consecutive clean refits climb back to rung 0 — the "descends and
// recovers" half of the service degradation story.
func TestPromoteAfterClimbsLadder(t *testing.T) {
	primaryHealthy := false
	primary := func(samples []float64) (Fitted, error) {
		if !primaryHealthy {
			return nil, errors.New("primary down")
		}
		return sample.NewPureEstimator(samples), nil
	}
	fallback := func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(primary, Config{
		ReservoirSize: 16, RefitEvery: -1, Seed: 1,
		Fallbacks: []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}
	fillEstimator(t, e, 15) // below capacity: no auto refit on fill

	// Three failing flushes spend the strike budget and land on rung 1
	// (the third failure degrades and retries the fallback inline).
	for strike := 1; strike < degradeAfter; strike++ {
		if err := e.Flush(); err == nil {
			t.Fatalf("flush %d should report the primary failure", strike)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush %d should degrade and succeed on the fallback: %v", degradeAfter, err)
	}
	if got := e.DegradationLevel(); got != 1 {
		t.Fatalf("degradation level = %d, want 1", got)
	}

	// promoteAfter−1 clean refits on the fallback are not enough to
	// promote...
	for clean := 1; clean < promoteAfter; clean++ {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := e.DegradationLevel(); got != 1 {
			t.Fatalf("promoted after %d clean refits (level %d), want promoteAfter=%d", clean, got, promoteAfter)
		}
	}
	// ...the next one is. (The degrading flush's successful fallback
	// build reset the streak, so these flushes are the streak.)
	primaryHealthy = true
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.DegradationLevel(); got != 0 {
		t.Fatalf("degradation level after promotion = %d, want 0", got)
	}
	// The promoted primary now serves the refits again.
	if err := e.Flush(); err != nil {
		t.Fatalf("flush on promoted primary: %v", err)
	}
	if got := e.DegradationLevel(); got != 0 {
		t.Fatalf("healthy primary demoted itself (level %d)", got)
	}
}

// TestReservoirValues pins the raw-sample accessor the service's cheapest
// answer rung reads from.
func TestReservoirValues(t *testing.T) {
	e, err := New(func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}, Config{ReservoirSize: 32, RefitEvery: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ReservoirValues(); len(got) != 0 {
		t.Fatalf("empty estimator returned %d reservoir values", len(got))
	}
	fillEstimator(t, e, 10)
	got := e.ReservoirValues()
	if len(got) != 10 {
		t.Fatalf("reservoir values = %d, want 10", len(got))
	}
	// The copy is private: mutating it must not corrupt the reservoir.
	for i := range got {
		got[i] = -1
	}
	if again := e.ReservoirValues(); again[0] == -1 {
		t.Fatal("ReservoirValues aliases the reservoir")
	}
}
