package errcode

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"selest/internal/errs"
)

// TestCodeRegistryFrozen pins the numeric values and string names: they
// are wire format, and a renumbering would silently break every client
// that compiled against the old registry.
func TestCodeRegistryFrozen(t *testing.T) {
	frozen := []struct {
		code Code
		num  uint16
		name string
		http int
	}{
		{CodeOK, 0, "ok", 200},
		{CodeInternal, 1, "internal", 500},
		{CodeBadRequest, 2, "bad_request", 400},
		{CodeNotFound, 3, "not_found", 404},
		{CodeOverQuota, 4, "over_quota", 429},
		{CodeDraining, 5, "draining", 503},
		{CodeConflict, 6, "conflict", 409},
		{CodeTimeout, 7, "timeout", 504},
		{CodeMethodNotAllowed, 8, "method_not_allowed", 405},
	}
	for _, f := range frozen {
		if uint16(f.code) != f.num {
			t.Errorf("%s renumbered: %d, want %d", f.name, f.code, f.num)
		}
		if f.code.String() != f.name {
			t.Errorf("code %d named %q, want %q", f.code, f.code.String(), f.name)
		}
		if f.code.HTTPStatus() != f.http {
			t.Errorf("%s maps to HTTP %d, want %d", f.name, f.code.HTTPStatus(), f.http)
		}
	}
}

// TestUnknownCode pins how a code from a newer peer degrades: it renders
// as "internal" and unwraps to ErrInternal rather than misclassifying.
func TestUnknownCode(t *testing.T) {
	if Code(9999).String() != "internal" {
		t.Errorf("unknown code renders %q, want internal", Code(9999).String())
	}
	if !errors.Is(Code(9999).Sentinel(), ErrInternal) {
		t.Error("unknown code sentinel is not ErrInternal")
	}
}

// TestClassifyRoundTrip pins the client-side contract: wrapping a code's
// sentinel and classifying it recovers the same code, through arbitrary
// %w nesting.
func TestClassifyRoundTrip(t *testing.T) {
	for c := range sentinels {
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", c.Sentinel()))
		if got := Classify(wrapped); got != c {
			t.Errorf("Classify(wrap(%v.Sentinel())) = %v, want %v", c, got, c)
		}
	}
}

func TestClassifySpecials(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{context.DeadlineExceeded, CodeTimeout},
		{fmt.Errorf("validate: %w", errs.ErrBadOption), CodeBadRequest},
		{fmt.Errorf("build: %w", errs.ErrInvalidDomain), CodeBadRequest},
		{fmt.Errorf("build: %w", errs.ErrEmptySample), CodeBadRequest},
		{errors.New("mystery"), CodeInternal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
