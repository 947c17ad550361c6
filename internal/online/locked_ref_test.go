package online

import (
	"fmt"
	"sync"

	"selest/internal/sample"
	"selest/internal/xrand"
)

// lockedEstimator is the pre-serving-engine implementation, preserved
// verbatim as the oracle and benchmark baseline: every query takes the
// RWMutex read lock, every insert the write lock, and refits run while
// holding it — so a refit stalls all readers for the whole build. The
// equivalence tests pin that the snapshot engine answers bit-for-bit the
// same on the same stream; the serve benches measure what retiring this
// design buys.
type lockedEstimator struct {
	builder Builder
	cfg     Config

	mu         sync.RWMutex
	reservoir  *sample.Reservoir
	fit        Fitted
	sinceRefit int
	refits     int
	inserts    int
}

func newLocked(build Builder, cfg Config) *lockedEstimator {
	cfg.applyDefaults()
	return &lockedEstimator{
		builder:   build,
		cfg:       cfg,
		reservoir: sample.NewReservoir(xrand.New(cfg.Seed), cfg.ReservoirSize),
	}
}

func (e *lockedEstimator) Insert(v float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reservoir.Add(v)
	e.inserts++
	e.sinceRefit++
	switch {
	case e.fit == nil && e.reservoir.Len() >= e.cfg.ReservoirSize:
		return e.refitLocked()
	case e.fit != nil && e.cfg.RefitEvery > 0 && e.sinceRefit >= e.cfg.RefitEvery:
		return e.refitLocked()
	}
	return nil
}

func (e *lockedEstimator) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reservoir.Len() == 0 {
		return fmt.Errorf("online: no records to fit")
	}
	return e.refitLocked()
}

// refitLocked rebuilds the fit while holding the write lock — the stall
// the snapshot engine exists to remove.
func (e *lockedEstimator) refitLocked() error {
	smp := e.reservoir.Snapshot()
	fit, err := e.builder(smp)
	if err != nil {
		e.sinceRefit = 0
		return fmt.Errorf("online: refit (fit kept serving): %w", err)
	}
	e.fit = fit
	e.sinceRefit = 0
	e.refits++
	return nil
}

func (e *lockedEstimator) Selectivity(a, b float64) float64 {
	e.mu.RLock()
	fit := e.fit
	e.mu.RUnlock()
	if fit == nil {
		return 0
	}
	return fit.Selectivity(a, b)
}

func (e *lockedEstimator) Refits() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.refits
}
