// The client's error surface: the same stable codes and sentinels the
// server classifies with (internal/errcode), re-exported so callers can
// `errors.Is(err, client.ErrOverQuota)` without importing an internal
// package — the same classification selestd's HTTP front reports as
// JSON error bodies.
package client

import (
	"fmt"
	"time"

	"selest/internal/errcode"
)

// Code is the stable numeric error identifier the server reports (wire
// error frames carry it raw; selestd's JSON bodies carry its string
// form).
type Code = errcode.Code

// The registry's codes, re-exported for switch statements on
// APIError.Code.
const (
	CodeInternal   = errcode.CodeInternal
	CodeBadRequest = errcode.CodeBadRequest
	CodeNotFound   = errcode.CodeNotFound
	CodeOverQuota  = errcode.CodeOverQuota
	CodeDraining   = errcode.CodeDraining
	CodeConflict   = errcode.CodeConflict
	CodeTimeout    = errcode.CodeTimeout
)

// Typed sentinels, re-exported so errors.Is works without importing an
// internal package: every server-reported failure unwraps to exactly one
// of these.
var (
	// ErrBadRequest reports malformed input (NaN/inverted ranges, empty
	// payloads, invalid attribute options).
	ErrBadRequest = errcode.ErrBadRequest
	// ErrNotFound reports an unknown tenant or attribute.
	ErrNotFound = errcode.ErrNotFound
	// ErrOverQuota reports admission refusal; the APIError in the chain
	// carries the server's retry-after hint.
	ErrOverQuota = errcode.ErrOverQuota
	// ErrDraining reports a server refusing new work during graceful
	// shutdown.
	ErrDraining = errcode.ErrDraining
	// ErrConflict reports an attribute that exists with a different
	// configuration.
	ErrConflict = errcode.ErrConflict
	// ErrTimeout reports an exhausted deadline budget.
	ErrTimeout = errcode.ErrTimeout
	// ErrInternal reports a server-side contained panic or unclassified
	// failure.
	ErrInternal = errcode.ErrInternal
)

// APIError is a failure the server reported (as opposed to a transport
// failure reaching it). It unwraps to its code's sentinel, so
// errors.Is(err, client.ErrOverQuota) matches.
type APIError struct {
	// Code is the stable numeric code from the shared registry.
	Code Code
	// Message is the server's human-readable detail.
	Message string
	// RetryAfter is the server's throttle hint for over-quota refusals
	// (the error frame's RetryAfterMs); zero means none. The client's
	// retry loop honours it.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("selest: %s (%s)", e.Message, e.Code)
}

// Unwrap links the error to its code's sentinel for errors.Is.
func (e *APIError) Unwrap() error { return e.Code.Sentinel() }
