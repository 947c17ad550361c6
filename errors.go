package selest

import (
	"selest/internal/core"
	"selest/internal/kde"
)

// The typed build errors. Build and BuildRobust wrap these with %w, so
// callers branch with errors.Is instead of matching message strings:
//
//	if _, err := selest.Build(nil, opts); errors.Is(err, selest.ErrEmptySample) { ... }
var (
	// ErrEmptySample reports a sample set with nothing to estimate from:
	// empty, or (through the robust ladder) containing no finite value.
	ErrEmptySample = core.ErrEmptySample
	// ErrInvalidDomain reports a domain that is not a proper finite
	// interval (DomainHi must exceed DomainLo).
	ErrInvalidDomain = core.ErrInvalidDomain
	// ErrBadOption reports an Options field outside its valid range: an
	// unknown method or rule, a negative count, a non-finite bandwidth,
	// or a rule/method combination that cannot work. Build also wraps it
	// for a NaN or ±Inf sample.
	ErrBadOption = core.ErrBadOption
)

// ParseMethod resolves a method name as written on a command line or in a
// config file: case-insensitive, surrounding space ignored. The error for
// an unknown name lists every valid method and wraps ErrBadOption.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseBandwidthRule resolves a smoothing-rule name the same way
// ParseMethod resolves methods.
func ParseBandwidthRule(s string) (BandwidthRule, error) { return core.ParseBandwidthRule(s) }

// ParseBoundaryMode resolves a kernel boundary-treatment name: "none",
// "reflect", or "kernels" (also accepted as "boundary-kernels").
func ParseBoundaryMode(s string) (BoundaryMode, error) { return kde.ParseBoundaryMode(s) }

// BandwidthRules lists every smoothing rule Build accepts.
func BandwidthRules() []BandwidthRule { return core.BandwidthRules() }
