// Package errs holds the typed sentinel errors shared across the
// estimator layers. It exists as a leaf package so that the parameter
// packages (bandwidth, hybrid) can wrap the same sentinels that
// internal/core re-exports without creating an import cycle — core
// imports bandwidth and hybrid, so the sentinels cannot live in core
// alone. core keeps aliases, so errors.Is against core.ErrBadOption and
// errs.ErrBadOption are interchangeable.
package errs

import "errors"

var (
	// ErrEmptySample reports a sample set with nothing to estimate from:
	// empty, or (through the robust ladder) containing no finite value.
	ErrEmptySample = errors.New("empty sample set")
	// ErrInvalidDomain reports a domain that is not a proper finite
	// interval (DomainHi must exceed DomainLo).
	ErrInvalidDomain = errors.New("invalid domain")
	// ErrBadOption reports an option outside its valid range: an unknown
	// method or rule, a negative count, a non-finite bandwidth, or a
	// rule/method combination that cannot work; also a sample set a
	// builder cannot take as given (non-finite, or unsorted where sorted
	// input is required).
	ErrBadOption = errors.New("bad option")
)
