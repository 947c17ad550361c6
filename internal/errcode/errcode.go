// Package errcode is the transport-neutral error surface of the
// estimator service: one registry of stable numeric codes, one set of
// %w-wrapped sentinels, and one classifier, shared verbatim by the
// HTTP/JSON transport (internal/server's JSON bodies), the binary wire
// protocol (internal/wire's error frames), and the native client
// (selest/client re-exports the sentinels). The rule the package
// enforces: the same failure carries the same code and the same message
// on every transport — only the envelope (JSON object vs binary frame)
// is transport-specific.
//
// Codes are wire format: their numeric values are frozen (DESIGN.md §13
// error-code registry). New codes append; existing values never change
// meaning or disappear.
//
// It is a leaf package (imports only stdlib and internal/errs) so both
// transports and the client can depend on it without cycles — the same
// layering argument as internal/errs itself.
package errcode

import (
	"context"
	"errors"

	"selest/internal/errs"
)

// Code is a stable numeric error identifier carried by the wire
// protocol's error frames and, via String, by the HTTP JSON error
// bodies. The zero value CodeOK never appears in an error.
type Code uint16

const (
	// CodeOK is the absence of an error; it never appears in an error
	// envelope and exists so the zero Code is unmistakably "no error".
	CodeOK Code = 0
	// CodeInternal is the catch-all for contained panics and unclassified
	// failures — the transport's 500.
	CodeInternal Code = 1
	// CodeBadRequest covers every malformed input: NaN/inverted ranges,
	// non-finite values, empty payloads, invalid attribute options.
	CodeBadRequest Code = 2
	// CodeNotFound is an unknown tenant or attribute.
	CodeNotFound Code = 3
	// CodeOverQuota is admission-control refusal; the envelope carries a
	// retry-after hint (header on HTTP, field on the wire).
	CodeOverQuota Code = 4
	// CodeDraining is graceful shutdown refusing new work.
	CodeDraining Code = 5
	// CodeConflict is an attribute re-created with a different
	// configuration.
	CodeConflict Code = 6
	// CodeTimeout is a request that ran out of its deadline budget.
	CodeTimeout Code = 7
	// CodeMethodNotAllowed is an HTTP verb other than the endpoint's
	// (HTTP-only in practice; registered here so the code space has a
	// single owner).
	CodeMethodNotAllowed Code = 8
)

// Typed service sentinels. Transports and the service core wrap these
// with %w; Classify maps any error chain containing one back to its
// numeric code, so the client can rebuild an errors.Is-compatible error
// from the code alone.
var (
	// ErrBadRequest is the root of every malformed-input error.
	// internal/server's more specific ErrBadRange/ErrBadValue wrap it.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound reports an unknown tenant or attribute.
	ErrNotFound = errors.New("unknown tenant or attribute")
	// ErrOverQuota reports admission-control refusal.
	ErrOverQuota = errors.New("tenant over quota")
	// ErrDraining reports a server refusing new work during graceful
	// shutdown.
	ErrDraining = errors.New("server shutting down")
	// ErrConflict reports an attribute that exists with a different
	// configuration.
	ErrConflict = errors.New("attribute exists with different configuration")
	// ErrTimeout reports an exhausted request deadline.
	ErrTimeout = errors.New("deadline exceeded")
	// ErrInternal reports a contained panic or unclassified failure.
	ErrInternal = errors.New("internal error")
	// ErrMethodNotAllowed reports a wrong HTTP verb.
	ErrMethodNotAllowed = errors.New("method not allowed")
)

// names holds the stable string form of each code — the `code` field of
// the HTTP JSON error body. Frozen alongside the numeric values.
var names = map[Code]string{
	CodeOK:               "ok",
	CodeInternal:         "internal",
	CodeBadRequest:       "bad_request",
	CodeNotFound:         "not_found",
	CodeOverQuota:        "over_quota",
	CodeDraining:         "draining",
	CodeConflict:         "conflict",
	CodeTimeout:          "timeout",
	CodeMethodNotAllowed: "method_not_allowed",
}

var sentinels = map[Code]error{
	CodeInternal:         ErrInternal,
	CodeBadRequest:       ErrBadRequest,
	CodeNotFound:         ErrNotFound,
	CodeOverQuota:        ErrOverQuota,
	CodeDraining:         ErrDraining,
	CodeConflict:         ErrConflict,
	CodeTimeout:          ErrTimeout,
	CodeMethodNotAllowed: ErrMethodNotAllowed,
}

// String returns the stable machine-readable name ("bad_request",
// "over_quota", …). Unknown codes — a newer peer's — render as
// "internal" rather than inventing a name the registry never issued.
func (c Code) String() string {
	if s, ok := names[c]; ok {
		return s
	}
	return names[CodeInternal]
}

// Sentinel returns the canonical typed error for a code — what the
// client wraps so errors.Is works identically on both sides of either
// transport. Unknown codes map to ErrInternal.
func (c Code) Sentinel() error {
	if err, ok := sentinels[c]; ok {
		return err
	}
	return ErrInternal
}

// HTTPStatus maps a code onto the HTTP transport's status line.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeOK:
		return 200
	case CodeBadRequest:
		return 400
	case CodeNotFound:
		return 404
	case CodeMethodNotAllowed:
		return 405
	case CodeConflict:
		return 409
	case CodeOverQuota:
		return 429
	case CodeDraining:
		return 503
	case CodeTimeout:
		return 504
	default:
		return 500
	}
}

// Classify maps an error chain to its stable code. Option-validation
// failures from the estimator core (errs.ErrBadOption and friends) are
// client mistakes, not server faults, so they classify as bad_request —
// a contained panic or anything unrecognised is internal.
func Classify(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, errs.ErrBadOption),
		errors.Is(err, errs.ErrInvalidDomain),
		errors.Is(err, errs.ErrEmptySample):
		return CodeBadRequest
	case errors.Is(err, ErrOverQuota):
		return CodeOverQuota
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrConflict):
		return CodeConflict
	case errors.Is(err, ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, ErrMethodNotAllowed):
		return CodeMethodNotAllowed
	default:
		return CodeInternal
	}
}

// APIError is the transport-neutral error payload: the JSON object the
// HTTP transport nests under "error", and the (code, message) pair the
// wire protocol's error frame carries. Code is the stable string form.
type APIError struct {
	// Code is the stable machine-readable identifier from this
	// package's registry.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// ErrorBody is the HTTP transport's error envelope: every non-2xx
// response body is exactly this shape.
type ErrorBody struct {
	Error APIError `json:"error"`
}
