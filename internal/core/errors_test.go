package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func validOpts() Options {
	return Options{DomainLo: 0, DomainHi: 1000}
}

func TestValidateAcceptsZeroValuePlusDomain(t *testing.T) {
	if err := validOpts().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	o := validOpts()
	o.Method = Kernel
	o.Rule = DPI
	o.Bins = 50
	o.Bandwidth = 2.5
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateDomainErrors(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"nan-lo", math.NaN(), 1},
		{"nan-hi", 0, math.NaN()},
		{"inf-lo", math.Inf(-1), 1},
		{"inf-hi", 0, math.Inf(1)},
		{"inverted", 10, 5},
		{"empty", 7, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Options{DomainLo: tc.lo, DomainHi: tc.hi}.Validate()
			if !errors.Is(err, ErrInvalidDomain) {
				t.Fatalf("Validate() = %v, want ErrInvalidDomain", err)
			}
		})
	}
}

func TestValidateOptionErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"unknown-method", func(o *Options) { o.Method = "bogus" }},
		{"unknown-rule", func(o *Options) { o.Rule = "bogus" }},
		{"negative-bins", func(o *Options) { o.Bins = -1 }},
		{"negative-bandwidth", func(o *Options) { o.Bandwidth = -1 }},
		{"nan-bandwidth", func(o *Options) { o.Bandwidth = math.NaN() }},
		{"lscv-histogram", func(o *Options) { o.Rule = LSCV; o.Method = EquiWidth }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOpts()
			tc.mutate(&o)
			err := o.Validate()
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("Validate() = %v, want ErrBadOption", err)
			}
		})
	}
}

func TestBuildWrapsSentinels(t *testing.T) {
	if _, err := Build(nil, validOpts()); !errors.Is(err, ErrEmptySample) {
		t.Fatalf("Build(nil) = %v, want ErrEmptySample", err)
	}
	if _, err := Build([]float64{1, 2, 3}, Options{DomainLo: 5, DomainHi: 1}); !errors.Is(err, ErrInvalidDomain) {
		t.Fatalf("Build(inverted domain) = %v, want ErrInvalidDomain", err)
	}
	o := validOpts()
	o.Method = "bogus"
	if _, err := Build([]float64{1, 2, 3}, o); !errors.Is(err, ErrBadOption) {
		t.Fatalf("Build(unknown method) = %v, want ErrBadOption", err)
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod("  " + strings.ToUpper(string(m)) + " ")
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", m, got, err, m)
		}
	}
	_, err := ParseMethod("histogramish")
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("ParseMethod(unknown) = %v, want ErrBadOption", err)
	}
	// The error must teach the valid vocabulary.
	for _, m := range Methods() {
		if !strings.Contains(err.Error(), string(m)) {
			t.Fatalf("ParseMethod error %q does not list %q", err, m)
		}
	}
}

func TestParseBandwidthRule(t *testing.T) {
	for _, r := range BandwidthRules() {
		got, err := ParseBandwidthRule(strings.ToUpper(string(r)))
		if err != nil || got != r {
			t.Fatalf("ParseBandwidthRule(%q) = %v, %v; want %v", r, got, err, r)
		}
	}
	_, err := ParseBandwidthRule("silverman")
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("ParseBandwidthRule(unknown) = %v, want ErrBadOption", err)
	}
	for _, r := range BandwidthRules() {
		if !strings.Contains(err.Error(), string(r)) {
			t.Fatalf("ParseBandwidthRule error %q does not list %q", err, r)
		}
	}
}
