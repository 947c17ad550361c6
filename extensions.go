package selest

import (
	"selest/internal/catalog"
	"selest/internal/core"
	"selest/internal/feedback"
	"selest/internal/online"
)

// This file exposes the library's extensions beyond the paper's core
// comparison: query-feedback adaptation, online (streaming) maintenance,
// and the persistent statistics catalog.

// Adaptive wraps a base estimator with a correction function learned from
// query feedback (the paper's future-work item #3): call Observe with the
// true selectivity of each executed query and subsequent estimates in the
// touched region improve.
type Adaptive = feedback.Adaptive

// AdaptiveConfig tunes the feedback wrapper (correction-grid resolution,
// learning rate, correction bound). The zero value applies sane defaults.
type AdaptiveConfig = feedback.Config

// NewAdaptive wraps base with a feedback corrector over [lo, hi].
func NewAdaptive(base Estimator, lo, hi float64, cfg AdaptiveConfig) (*Adaptive, error) {
	return feedback.New(base, lo, hi, cfg)
}

// Online is a self-maintaining estimator over a record stream: it owns a
// reservoir sample and refits once the reservoir fills, then on a
// cadence (the paper's future-work item #2).
type Online = online.Estimator

// OnlineConfig tunes the online estimator: reservoir size, refit
// cadence, the reservoir's seed and fallback builders. The zero value
// applies the paper's 2,000-record sample size.
type OnlineConfig = online.Config

// NewOnline returns an online estimator that refits with the given
// options over the reservoir's sorted view, in place: each refit gives
// the answers Build gives over the same sample without copying or
// sorting it again.
func NewOnline(opts Options, cfg OnlineConfig) (*Online, error) {
	return online.New(func(sorted []float64) (online.Fitted, error) {
		return core.BuildSorted(sorted, opts)
	}, cfg)
}

// Catalog is a persistent statistics catalog: per-(table, column) sample
// sets plus estimator configuration, with binary save/load — the form in
// which a database system would keep these estimators between ANALYZE
// runs.
type Catalog = catalog.Catalog

// CatalogEntry is one column's persisted statistics.
type CatalogEntry = catalog.Entry

// NewCatalog returns an empty statistics catalog.
func NewCatalog() *Catalog { return catalog.New() }

// LoadCatalog reads a catalog from disk and rebuilds its estimators.
func LoadCatalog(path string) (*Catalog, error) { return catalog.LoadFile(path) }
