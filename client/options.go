// Client configuration and per-call options. Options follows the same
// validate-at-construction pattern as selest.Options and
// server.Options: every field has a working default, and New rejects
// out-of-range values with typed ErrBadOption errors.
package client

import (
	"fmt"
	"math"
	"time"

	"selest/internal/errs"
)

// Options configures a Client. Exactly one of Addr (a single server) or
// Addrs (a replica fleet) is required; everything else defaults
// sensibly.
type Options struct {
	// Addr is the server's wire listener address (host:port, selestd
	// -wire-addr).
	Addr string
	// Addrs lists the wire listeners of every replica of a scaled-out
	// fleet (host:port each). The client routes each tenant to
	// Replication of them by rendezvous hash (DESIGN.md §15): reads go
	// to the tenant's primary and fail over down the preference list on
	// connection- and 5xx-class errors; writes fan out to the whole
	// replica set. Setting both Addr and Addrs, or neither, is an error.
	Addrs []string
	// Replication is how many ring replicas own each tenant. Zero
	// defaults to 1 (pure sharding: each tenant lives on one replica);
	// values above len(Addrs) are clamped. With Replication > 1 reads
	// survive a replica death and writes are best-effort fan-out —
	// success when at least one replica accepts (DESIGN.md §15 spells
	// out the consistency contract).
	Replication int
	// Conns is the connection-pool size per replica (calls are
	// pipelined, so a handful of connections carries deep concurrency).
	// Zero defaults to 4.
	Conns int
	// DialTimeout bounds one connection attempt. Zero defaults to 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-attempt deadline applied when neither
	// the call's context nor a WithTimeout option names one. It is also
	// what the server hears (Meta.TimeoutMs, in whole milliseconds
	// rounded up), so the server-side degradation ladder sees the same
	// budget the client enforces. Zero defaults to 5s.
	RequestTimeout time.Duration
	// MaxRetries bounds retries after the first attempt for retryable
	// failures (transport errors, over-quota with the server's hint,
	// draining, internal). Negative disables retries; zero defaults
	// to 3.
	MaxRetries int
	// RetryBaseDelay seeds the full-jitter exponential backoff:
	// attempt n sleeps U(0, RetryBaseDelay·2ⁿ) capped at RetryMaxDelay.
	// Zero defaults to 10ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps one backoff sleep (and a server throttle hint).
	// Zero defaults to 2s.
	RetryMaxDelay time.Duration
	// HealthCheckEvery is the wire pool's background ping cadence: a
	// persistent connection idle for a full interval is pinged, and one
	// that fails its ping is torn down so the next call redials instead
	// of inheriting a dead socket. Zero defaults to 15s; negative
	// disables the checker.
	HealthCheckEvery time.Duration
}

func (o Options) withDefaults() Options {
	if len(o.Addrs) == 0 {
		o.Addrs = []string{o.Addr}
	}
	o.Addr = ""
	if o.Replication == 0 {
		o.Replication = 1
	}
	if o.Replication > len(o.Addrs) {
		o.Replication = len(o.Addrs)
	}
	if o.Conns == 0 {
		o.Conns = 4
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay == 0 {
		o.RetryBaseDelay = 10 * time.Millisecond
	}
	if o.RetryMaxDelay == 0 {
		o.RetryMaxDelay = 2 * time.Second
	}
	if o.HealthCheckEvery == 0 {
		o.HealthCheckEvery = 15 * time.Second
	}
	return o
}

// Validate reports the first invalid field as a typed ErrBadOption
// error.
func (o *Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("client: %s: %w", fmt.Sprintf(format, args...), errs.ErrBadOption)
	}
	if o.Addr == "" && len(o.Addrs) == 0 {
		return bad("Addr or Addrs is required")
	}
	if o.Addr != "" && len(o.Addrs) > 0 {
		return bad("set Addr or Addrs, not both")
	}
	seen := make(map[string]bool, len(o.Addrs))
	for _, a := range o.Addrs {
		if a == "" {
			return bad("empty address in Addrs")
		}
		if seen[a] {
			return bad("duplicate address %q in Addrs", a)
		}
		seen[a] = true
	}
	if o.Replication < 0 {
		return bad("Replication %d must be non-negative", o.Replication)
	}
	if o.Conns < 0 {
		return bad("Conns %d must be non-negative", o.Conns)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"DialTimeout", o.DialTimeout},
		{"RequestTimeout", o.RequestTimeout},
		{"RetryBaseDelay", o.RetryBaseDelay},
		{"RetryMaxDelay", o.RetryMaxDelay},
	} {
		if d.v < 0 {
			return bad("%s %v must be non-negative", d.name, d.v)
		}
	}
	return nil
}

// Range is one [Lo, Hi] query.
type Range struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Result is one answered range query — the client-side twin of the
// service's EstimateResult.
type Result struct {
	// Selectivity is the estimated fraction of the stream in [Lo, Hi].
	Selectivity float64 `json:"selectivity"`
	// Rows scales the selectivity by the attribute's ingested count.
	Rows float64 `json:"rows"`
	// Rung names the degradation-ladder level that answered
	// (fresh | snapshot | reservoir | uniform).
	Rung string `json:"rung"`
	// Generation is the serving snapshot's generation (0 = no fit yet).
	Generation uint64 `json:"generation"`
	// Degraded reports an answer from a lower rung than requested.
	Degraded bool `json:"degraded,omitempty"`
}

// IngestResult reports what happened to an ingest payload, counted as
// if its values had been pushed one at a time.
type IngestResult struct {
	// Queued values entered the attribute's ingest queue: all of the
	// payload.
	Queued int `json:"queued"`
	// Shed values, the oldest queued, were dropped to stay within the
	// queue's bound: values queued earlier first, then, for a payload
	// larger than the bound, the payload's own oldest. Over any run of
	// ingests, the values that reach the reservoir number Queued − Shed.
	Shed int `json:"shed"`
}

// AttrConfig is an attribute's estimator configuration, the public twin
// of the server's: the JSON encoding here is the single config schema
// shared by the HTTP body, the wire CreateAttr payload, and the snapshot
// manifest.
type AttrConfig struct {
	// DomainLo/DomainHi bound the attribute. Required, finite, Lo < Hi.
	DomainLo float64 `json:"domain_lo"`
	DomainHi float64 `json:"domain_hi"`
	// Method/Rule/Boundary/Bins/Bandwidth mirror selest.Options for the
	// primary builder. Empty method defaults to kernel.
	Method    string  `json:"method,omitempty"`
	Rule      string  `json:"rule,omitempty"`
	Boundary  int     `json:"boundary,omitempty"`
	Bins      int     `json:"bins,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// ReservoirSize/RefitEvery/Seed parameterise the online engine
	// (zeroes take the server defaults).
	ReservoirSize int    `json:"reservoir_size,omitempty"`
	RefitEvery    int    `json:"refit_every,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

func (c *AttrConfig) validate() error {
	if math.IsNaN(c.DomainLo) || math.IsInf(c.DomainLo, 0) ||
		math.IsNaN(c.DomainHi) || math.IsInf(c.DomainHi, 0) || !(c.DomainHi > c.DomainLo) {
		return fmt.Errorf("client: attr domain [%v, %v]: %w", c.DomainLo, c.DomainHi, errs.ErrBadOption)
	}
	return nil
}

// callOptions is the resolved per-call state; CallOption values mutate
// it.
type callOptions struct {
	timeout    time.Duration // per-attempt budget; 0 = Options.RequestTimeout
	fresh      bool
	maxRetries int // -1 = Options.MaxRetries
}

// CallOption customises one call.
type CallOption func(*callOptions)

// WithTimeout names the per-attempt deadline budget for this call. The
// same value travels to the server in the request's Meta (whole
// milliseconds, rounded up) so both sides enforce one budget.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOptions) { o.timeout = d }
}

// WithFresh asks the estimate to flush pending inserts into a refit
// before answering (the server degrades to the snapshot rung under
// overload or a tight deadline rather than failing).
func WithFresh() CallOption {
	return func(o *callOptions) { o.fresh = true }
}

// WithMaxRetries overrides Options.MaxRetries for this call; 0 disables
// retries entirely.
func WithMaxRetries(n int) CallOption {
	return func(o *callOptions) { o.maxRetries = n }
}
