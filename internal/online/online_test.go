package online

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"selest/internal/core"
	"selest/internal/kde"
	"selest/internal/sample"
	"selest/internal/xrand"
)

// kernelBuilder fits the paper's recommended kernel estimator (boundary
// kernels) over [0, 1000].
func kernelBuilder(samples []float64) (Fitted, error) {
	return core.Build(samples, core.Options{
		Method: core.Kernel, Boundary: kde.BoundaryKernels,
		DomainLo: 0, DomainHi: 1000,
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil builder should error")
	}
	if _, err := New(kernelBuilder, Config{ReservoirSize: 1}); err == nil {
		t.Fatal("tiny reservoir should error")
	}
}

func TestUnfittedAnswersZero(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if e.Selectivity(0, 1000) != 0 {
		t.Fatal("unfitted estimator should answer 0")
	}
	if e.Name() != "online(unfitted)" {
		t.Fatalf("Name = %q", e.Name())
	}
}

func TestFitsWhenReservoirFills(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	for i := 0; i < 99; i++ {
		if err := e.Insert(r.Float64() * 1000); err != nil {
			t.Fatal(err)
		}
	}
	if e.Refits() != 0 {
		t.Fatal("fitted before the reservoir filled")
	}
	if err := e.Insert(500); err != nil {
		t.Fatal(err)
	}
	if e.Refits() != 1 {
		t.Fatalf("Refits = %d after fill", e.Refits())
	}
	if s := e.Selectivity(0, 1000); math.Abs(s-1) > 0.05 {
		t.Fatalf("whole-domain σ̂ = %v", s)
	}
	if e.Name() == "online(unfitted)" {
		t.Fatal("Name should include the fit")
	}
}

func TestCadenceRefits(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 50, RefitEvery: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	for i := 0; i < 1000; i++ {
		if err := e.Insert(r.Float64() * 1000); err != nil {
			t.Fatal(err)
		}
	}
	// Fill refit at 50 inserts, then every 100: 1 + floor((1000-50)/100).
	if e.Refits() < 8 || e.Refits() > 12 {
		t.Fatalf("Refits = %d, want ~10", e.Refits())
	}
	if e.Inserts() != 1000 {
		t.Fatalf("Inserts = %d", e.Inserts())
	}
}

// TestCadenceKeepsInsertsDuringBuild pins that a publish keeps the
// inserts that landed while its build ran: they count toward the next
// cadence refit, which fires RefitEvery − N inserts after the publish
// rather than a full RefitEvery.
func TestCadenceKeepsInsertsDuringBuild(t *testing.T) {
	const K, every, during = 64, 100, 30
	var block atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	build := func(samples []float64) (Fitted, error) {
		if block.Load() {
			entered <- struct{}{}
			<-release
		}
		return sample.NewPureEstimator(samples), nil
	}
	e, err := New(build, Config{ReservoirSize: K, RefitEvery: every, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := e.Insert(r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(K + every - 1) // the fill fit, then one short of the cadence
	block.Store(true)
	done := make(chan error, 1)
	go func() { done <- e.Insert(0.5) }() // crosses the boundary and builds
	<-entered
	block.Store(false)
	insert(during) // coalesce into the blocked build
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.Refits() != 2 {
		t.Fatalf("Refits = %d after the blocked build published, want 2", e.Refits())
	}
	insert(every - during - 1)
	if e.Refits() != 2 {
		t.Fatalf("Refits = %d, %d inserts after the publish; the next cadence refit fired early", e.Refits(), every-1)
	}
	insert(1)
	if e.Refits() != 3 {
		t.Fatalf("Refits = %d: no cadence refit %d inserts after the publish that saw %d inserts land", e.Refits(), every-during, during)
	}
}

func TestFlush(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("flush of empty estimator should error")
	}
	r := xrand.New(10)
	for i := 0; i < 50; i++ { // far below the reservoir size
		if err := e.Insert(r.Float64() * 1000); err != nil {
			t.Fatal(err)
		}
	}
	if e.Refits() != 0 {
		t.Fatal("should not have fitted yet")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Refits() != 1 || e.Selectivity(0, 1000) == 0 {
		t.Fatal("flush did not fit")
	}
}

func TestBuilderErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	e, err := New(func([]float64) (Fitted, error) { return nil, boom }, Config{ReservoirSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	var sawErr bool
	for i := 0; i < 10; i++ {
		if err := e.Insert(r.Float64()); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("wrong error: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("builder error swallowed")
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	e, err := New(kernelBuilder, Config{ReservoirSize: 100, RefitEvery: 500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 5000; i++ {
				if err := e.Insert(r.Float64() * 1000); err != nil {
					panic(err)
				}
			}
		}(uint64(g))
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed + 50)
			for i := 0; i < 5000; i++ {
				a := r.Float64() * 900
				if s := e.Selectivity(a, a+100); s < 0 || s > 1 {
					panic("selectivity out of range")
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if e.Inserts() != 20000 {
		t.Fatalf("Inserts = %d", e.Inserts())
	}
}
