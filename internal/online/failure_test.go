package online

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"selest/internal/sample"
)

// flake is a builder that succeeds until failAfter successful builds have
// happened, then fails every attempt (optionally by panicking) until
// recoverAt total attempts, after which it succeeds again.
type flake struct {
	mu        sync.Mutex
	builds    int // successful builds
	attempts  int
	failAfter int
	panics    bool
	err       error
}

func (f *flake) build(samples []float64) (Fitted, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	if f.builds >= f.failAfter {
		if f.panics {
			panic("flaky builder bug")
		}
		return nil, f.err
	}
	f.builds++
	return sample.NewPureEstimator(samples), nil
}

func feed(t *testing.T, e *Estimator, lo, n int) (lastErr error) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.Insert(float64(lo + i)); err != nil {
			lastErr = err
		}
	}
	return lastErr
}

// TestRefitErrorKeepsServing fails every refit after the first and checks
// the stale-but-valid fit keeps answering.
func TestRefitErrorKeepsServing(t *testing.T) {
	fl := &flake{failAfter: 1, err: errors.New("fit diverged")}
	e, err := New(fl.build, Config{ReservoirSize: 50, RefitEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, 0, 50) // first fit
	if e.Refits() != 1 {
		t.Fatalf("refits = %d, want 1", e.Refits())
	}
	before := e.Selectivity(0, 49)
	if before == 0 {
		t.Fatal("first fit should answer")
	}
	lastErr := feed(t, e, 50, 200) // every further refit fails
	if lastErr == nil || !strings.Contains(lastErr.Error(), "fit diverged") {
		t.Fatalf("Insert should surface the refit failure, got %v", lastErr)
	}
	if got := e.Selectivity(0, 49); got != before {
		t.Fatalf("failed refit changed the serving fit: %v -> %v", before, got)
	}
	if e.FailedRefits() == 0 {
		t.Fatal("failed refits not counted")
	}
	if err := e.LastError(); err == nil || !strings.Contains(err.Error(), "fit diverged") {
		t.Fatalf("LastError = %v", err)
	}
	if e.Refits() != 1 {
		t.Fatalf("refits = %d, want still 1", e.Refits())
	}
}

// TestBuilderPanicContained panics inside the builder mid-stream and
// checks Insert reports an error instead of crashing, with the previous
// fit still serving.
func TestBuilderPanicContained(t *testing.T) {
	fl := &flake{failAfter: 1, panics: true}
	e, err := New(fl.build, Config{ReservoirSize: 50, RefitEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, 0, 50)
	before := e.Selectivity(0, 49)
	lastErr := feed(t, e, 50, 100)
	if lastErr == nil || !strings.Contains(lastErr.Error(), "builder panic") {
		t.Fatalf("panic should surface as an error, got %v", lastErr)
	}
	if got := e.Selectivity(0, 49); got != before {
		t.Fatalf("panicking refit changed the serving fit: %v -> %v", before, got)
	}
}

// TestDegradeAfterStrikes checks that degradeAfter consecutive failures
// of the primary builder move the estimator to the fallback, which then
// serves fresh fits again.
func TestDegradeAfterStrikes(t *testing.T) {
	fl := &flake{failAfter: 1, err: errors.New("primary down")}
	fallbackBuilds := 0
	fallback := func(samples []float64) (Fitted, error) {
		fallbackBuilds++
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(fl.build, Config{
		ReservoirSize: 50,
		RefitEvery:    50,
		Fallbacks:     []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, 0, 50) // first fit via primary
	// Strikes 1 and 2: failures surface, still on the primary.
	for strike := 1; strike <= 2; strike++ {
		if err := feed(t, e, 0, 50); err == nil {
			t.Fatalf("strike %d should surface an error", strike)
		}
		if lvl := e.DegradationLevel(); lvl != 0 {
			t.Fatalf("degraded after %d strikes (level %d)", strike, lvl)
		}
	}
	if e.ConsecutiveFailures() != 2 {
		t.Fatalf("consecutive failures = %d, want 2", e.ConsecutiveFailures())
	}
	// Strike 3 degrades and immediately retries on the fallback.
	if err := feed(t, e, 0, 50); err != nil {
		t.Fatalf("degraded refit should succeed, got %v", err)
	}
	if lvl := e.DegradationLevel(); lvl != 1 {
		t.Fatalf("degradation level = %d, want 1", lvl)
	}
	if fallbackBuilds == 0 {
		t.Fatal("fallback builder never ran")
	}
	if e.ConsecutiveFailures() != 0 {
		t.Fatalf("successful degraded refit should clear the streak, got %d", e.ConsecutiveFailures())
	}
	// Further refits stay on the fallback and succeed.
	if err := feed(t, e, 0, 50); err != nil {
		t.Fatalf("fallback refit failed: %v", err)
	}
	if e.Refits() < 3 {
		t.Fatalf("refits = %d, want >= 3", e.Refits())
	}
}

// TestDegradationLadderExhausted keeps failing on every rung: the last
// rung's failures surface but serving continues from the stale fit.
func TestDegradationLadderExhausted(t *testing.T) {
	fl := &flake{failAfter: 1, err: errors.New("primary down")}
	badFallback := func(samples []float64) (Fitted, error) {
		return nil, errors.New("fallback also down")
	}
	e, err := New(fl.build, Config{
		ReservoirSize: 50,
		RefitEvery:    50,
		Fallbacks:     []Builder{badFallback},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, 0, 50)
	before := e.Selectivity(0, 49)
	for i := 0; i < 6; i++ {
		feed(t, e, 0, 50)
	}
	if lvl := e.DegradationLevel(); lvl != 1 {
		t.Fatalf("degradation level = %d, want 1 (ladder exhausted)", lvl)
	}
	if got := e.Selectivity(0, 49); got != before {
		t.Fatalf("serving fit changed across a failing ladder: %v -> %v", before, got)
	}
}

// TestConcurrentServeThroughFailures hammers Selectivity from readers
// while writers insert through a builder that alternates panics and
// errors — the race detector target for the panic-safe serving path.
func TestConcurrentServeThroughFailures(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	build := func(samples []float64) (Fitted, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch {
		case n == 1:
			return sample.NewPureEstimator(samples), nil
		case n%2 == 0:
			return nil, errors.New("even refit down")
		default:
			panic("odd refit bug")
		}
	}
	fallback := func(samples []float64) (Fitted, error) {
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{
		ReservoirSize: 32,
		RefitEvery:    16,
		Fallbacks:     []Builder{fallback},
	})
	if err != nil {
		t.Fatal(err)
	}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := e.Selectivity(0, 1000); s < 0 || s > 1 {
					t.Errorf("Selectivity out of range: %v", s)
					return
				}
				e.Name()
				e.DegradationLevel()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				e.Insert(float64(w*2000 + i)) // errors expected; serving must survive
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if e.Inserts() != 4000 {
		t.Fatalf("inserts = %d, want 4000", e.Inserts())
	}
	if s := e.Selectivity(0, 4000); s <= 0 || s > 1 {
		t.Fatalf("final Selectivity = %v, want in (0, 1]", s)
	}
}
