package core

// Registration suite for the closed-form bandwidth engine: the
// beta-kernel method and the beta-closed-form/exact-mise rules must be
// reachable through every declarative surface (Build, Validate, the
// parsers) and rejected with typed errors everywhere they cannot work.

import (
	"errors"
	"testing"

	"selest/internal/kde"
)

func TestBuildBetaKernel(t *testing.T) {
	samples := testSamples(2000, 11)
	for _, rule := range []BandwidthRule{"", BetaClosedForm, ExactMISE, NormalScale, DPI, LSCV} {
		est, err := Build(samples, Options{Method: BetaKernel, Rule: rule, DomainLo: 0, DomainHi: 1000})
		if err != nil {
			t.Fatalf("rule %q: %v", rule, err)
		}
		be, ok := est.(*kde.BetaEstimator)
		if !ok {
			t.Fatalf("rule %q: built %T, want *kde.BetaEstimator", rule, est)
		}
		if h := be.Bandwidth(); !(h > 0) {
			t.Fatalf("rule %q: bandwidth %v", rule, h)
		}
		s := est.Selectivity(100, 900)
		if !(s > 0 && s <= 1) {
			t.Fatalf("rule %q: selectivity %v", rule, s)
		}
	}
}

func TestBuildKernelWithClosedFormRules(t *testing.T) {
	samples := testSamples(2000, 12)
	for _, rule := range []BandwidthRule{BetaClosedForm, ExactMISE} {
		est, err := Build(samples, Options{Method: Kernel, Rule: rule, Boundary: kde.BoundaryKernels, DomainLo: 0, DomainHi: 1000})
		if err != nil {
			t.Fatalf("rule %s: %v", rule, err)
		}
		h := est.(*kde.Estimator).Bandwidth()
		if h <= 0 || h > 500 {
			t.Fatalf("rule %s: implausible bandwidth %v", rule, h)
		}
	}
}

func TestClosedFormRulesRejectHistograms(t *testing.T) {
	samples := testSamples(200, 13)
	for _, rule := range []BandwidthRule{BetaClosedForm, ExactMISE} {
		_, err := Build(samples, Options{Method: EquiDepth, Rule: rule, DomainLo: 0, DomainHi: 1000})
		if !errors.Is(err, ErrBadOption) {
			t.Fatalf("rule %s on histogram: err = %v, want ErrBadOption", rule, err)
		}
	}
}

func TestParseClosedFormRegistrations(t *testing.T) {
	// Forward: every registered name round-trips through its parser.
	m, err := ParseMethod(" Beta-Kernel ")
	if err != nil || m != BetaKernel {
		t.Fatalf("ParseMethod(beta-kernel) = %v, %v", m, err)
	}
	for _, want := range []BandwidthRule{BetaClosedForm, ExactMISE} {
		r, err := ParseBandwidthRule(string(want))
		if err != nil || r != want {
			t.Fatalf("ParseBandwidthRule(%s) = %v, %v", want, r, err)
		}
	}
	// Reverse: unknown names stay typed ErrBadOption and the message
	// advertises the new rules.
	_, err = ParseBandwidthRule("beta-closed")
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("unknown rule err = %v, want ErrBadOption", err)
	}
	for _, rule := range BandwidthRules() {
		if _, perr := ParseBandwidthRule(string(rule)); perr != nil {
			t.Fatalf("listed rule %s does not parse: %v", rule, perr)
		}
	}
	if got := ruleNames(); !containsAll(got, "beta-closed-form", "exact-mise") {
		t.Fatalf("ruleNames() = %q missing new rules", got)
	}
}

func TestKernelOnlyRule(t *testing.T) {
	for rule, want := range map[BandwidthRule]bool{
		NormalScale: false, DPI: false,
		LSCV: true, BetaClosedForm: true, ExactMISE: true,
	} {
		if KernelOnlyRule(rule) != want {
			t.Fatalf("KernelOnlyRule(%s) = %v, want %v", rule, !want, want)
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
