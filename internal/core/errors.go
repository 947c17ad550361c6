package core

import (
	"fmt"
	"math"
	"strings"

	"selest/internal/errs"
)

// The typed build errors. Build and the robust ladder wrap these with
// %w, so callers branch with errors.Is instead of matching message
// strings:
//
//	if _, err := selest.Build(nil, opts); errors.Is(err, selest.ErrEmptySample) { ... }
//
// The sentinels themselves live in the leaf package internal/errs so the
// parameter packages (bandwidth, hybrid) can wrap the same values without
// importing core; these aliases keep the public surface unchanged.
var (
	// ErrEmptySample reports a sample set with nothing to estimate from:
	// empty, or (through the robust ladder) containing no finite value.
	ErrEmptySample = errs.ErrEmptySample
	// ErrInvalidDomain reports a domain that is not a proper finite
	// interval (DomainHi must exceed DomainLo).
	ErrInvalidDomain = errs.ErrInvalidDomain
	// ErrBadOption reports an Options field outside its valid range: an
	// unknown method or rule, a negative count, a non-finite bandwidth,
	// or a rule/method combination that cannot work. Build also wraps it
	// for a NaN or ±Inf sample, and BuildSorted for unsorted samples.
	ErrBadOption = errs.ErrBadOption
)

// Validate checks the option set for structural errors — the caller
// bugs no estimator could fit around. Every failure wraps one of the
// sentinel errors above. A zero Method or Rule is valid (it means the
// documented default); Validate does not require samples, which Build
// checks separately against ErrEmptySample.
func (o Options) Validate() error {
	if math.IsNaN(o.DomainLo) || math.IsNaN(o.DomainHi) {
		return fmt.Errorf("domain [%v, %v] has NaN bounds: %w", o.DomainLo, o.DomainHi, ErrInvalidDomain)
	}
	if math.IsInf(o.DomainLo, 0) || math.IsInf(o.DomainHi, 0) {
		return fmt.Errorf("domain [%v, %v] has infinite bounds: %w", o.DomainLo, o.DomainHi, ErrInvalidDomain)
	}
	if !(o.DomainHi > o.DomainLo) {
		return fmt.Errorf("domain [%v, %v] is empty: %w", o.DomainLo, o.DomainHi, ErrInvalidDomain)
	}
	if o.Method != "" && !knownMethod(o.Method) {
		return fmt.Errorf("unknown method %q (valid: %s): %w", o.Method, methodNames(), ErrBadOption)
	}
	if o.Rule != "" && !knownRule(o.Rule) {
		return fmt.Errorf("unknown bandwidth rule %q (valid: %s): %w", o.Rule, ruleNames(), ErrBadOption)
	}
	if o.Bins < 0 {
		return fmt.Errorf("bins %d is negative: %w", o.Bins, ErrBadOption)
	}
	if o.Bandwidth < 0 || math.IsNaN(o.Bandwidth) || math.IsInf(o.Bandwidth, 0) {
		return fmt.Errorf("bandwidth %v is not a non-negative finite value: %w", o.Bandwidth, ErrBadOption)
	}
	if KernelOnlyRule(o.Rule) && o.Bins == 0 && isHistogramMethod(o.Method) {
		return fmt.Errorf("%s selects kernel bandwidths, not bin counts (method %s): %w", o.Rule, o.Method, ErrBadOption)
	}
	return nil
}

// knownMethod reports whether m is one of the dispatchable methods.
func knownMethod(m Method) bool {
	for _, k := range Methods() {
		if k == m {
			return true
		}
	}
	return false
}

// isHistogramMethod reports whether m resolves its smoothing parameter
// through a bin-width rule rather than a kernel bandwidth.
func isHistogramMethod(m Method) bool {
	switch m {
	case EquiWidth, EquiDepth, MaxDiff, VOptimal, EndBiased, ASH, FrequencyPolygon:
		return true
	}
	return false
}

// BandwidthRules lists every rule Build accepts.
func BandwidthRules() []BandwidthRule {
	return []BandwidthRule{NormalScale, DPI, LSCV, BetaClosedForm, ExactMISE}
}

// knownRule reports whether r is one of the dispatchable rules.
func knownRule(r BandwidthRule) bool {
	for _, k := range BandwidthRules() {
		if k == r {
			return true
		}
	}
	return false
}

// KernelOnlyRule reports whether r selects kernel bandwidths exclusively
// — it cannot derive a histogram bin count. LSCV cross-validates a kernel
// estimator; the closed-form rules target kernel AMISE/CDF-MISE directly.
func KernelOnlyRule(r BandwidthRule) bool {
	switch r {
	case LSCV, BetaClosedForm, ExactMISE:
		return true
	}
	return false
}

// methodNames renders the valid method list for error messages.
func methodNames() string {
	ms := Methods()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, ", ")
}

// ruleNames renders the valid rule list for error messages.
func ruleNames() string {
	rs := BandwidthRules()
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ", ")
}

// ParseMethod resolves a method name as written on a command line or in
// a config file: case-insensitive, surrounding space ignored. The error
// for an unknown name lists every valid method and wraps ErrBadOption.
func ParseMethod(s string) (Method, error) {
	norm := Method(strings.ToLower(strings.TrimSpace(s)))
	if knownMethod(norm) {
		return norm, nil
	}
	return "", fmt.Errorf("unknown method %q (valid: %s): %w", s, methodNames(), ErrBadOption)
}

// ParseBandwidthRule resolves a smoothing-rule name the same way
// ParseMethod resolves methods.
func ParseBandwidthRule(s string) (BandwidthRule, error) {
	norm := BandwidthRule(strings.ToLower(strings.TrimSpace(s)))
	for _, r := range BandwidthRules() {
		if r == norm {
			return r, nil
		}
	}
	return "", fmt.Errorf("unknown bandwidth rule %q (valid: %s): %w", s, ruleNames(), ErrBadOption)
}
