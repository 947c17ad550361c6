// Service construction: the validated Options struct and the NewServer
// constructor — the server-side mirror of selest.Options.Validate. Every
// limit and queue size lives here, and a bad value is a typed
// core.ErrBadOption at construction time instead of a surprise at
// request time. The snapshot path and listener addresses belong to the
// daemon (cmd/selestd), which hands the Server its listeners.
package server

import (
	"fmt"
	"math"
	"time"

	"selest/internal/errs"
)

// Options parameterises the service. The zero value is a working
// server: every limit takes the documented default. Validate rejects
// values outside their range with typed errs.ErrBadOption errors
// (errors.Is-compatible with core.ErrBadOption).
type Options struct {
	// QuotaRate/QuotaBurst set every tenant's token bucket: QuotaRate
	// tokens refill per second up to QuotaBurst, and each request costs
	// its payload size (one per estimate query, one per ingested value).
	// QuotaRate <= 0 disables admission control.
	QuotaRate, QuotaBurst float64
	// GlobalRate/GlobalBurst cap the whole box's admitted request rate
	// (requests per second, regardless of tenant or payload size) with
	// one shared token bucket checked before any per-tenant quota.
	// Refusals are ErrOverQuota with an exact Retry-After, identical to a
	// tenant-quota refusal. This is overload protection for the process —
	// the knob an operator sets to what one replica's hardware sustains —
	// and the capacity model scripts/bench_cluster.sh uses to measure
	// replica scaling on a shared host. Pings and health checks bypass
	// it, so a saturated replica still answers "alive". GlobalRate <= 0
	// disables the cap.
	GlobalRate, GlobalBurst float64
	// QueueCap bounds how many values each attribute's ingest queue
	// holds; overflow sheds the oldest queued values. Memory is taken as
	// values arrive and given back when the queue drains. Zero defaults
	// to 8192.
	QueueCap int
	// DefaultTimeout is applied to requests that carry no deadline of
	// their own. Zero defaults to 5s.
	DefaultTimeout time.Duration
	// DegradeDeadline is the remaining-deadline threshold below which a
	// fresh=true estimate skips its flush and answers from the current
	// snapshot instead of racing the clock. Zero defaults to 25ms.
	DegradeDeadline time.Duration
	// MaxInflight is the overload threshold: while more requests than
	// this are in flight, fresh=true estimates degrade to the snapshot
	// rung. Zero defaults to 1024.
	MaxInflight int64
	// MaxBatch bounds queries per batch-estimate and values per ingest
	// request. Zero defaults to 4096.
	MaxBatch int
}

// maxAttrs bounds the total number of attributes across tenants. A
// request body (HTTP) or frame payload (wire) is bounded by
// wire.MaxPayload: payloads beyond it are a typed error, not an OOM.
const maxAttrs = 4096

// withDefaults returns o with every zero limit replaced by its default.
func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 8192
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Second
	}
	if o.DegradeDeadline == 0 {
		o.DegradeDeadline = 25 * time.Millisecond
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 1024
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 4096
	}
	return o
}

// Validate reports the first option outside its valid range as a typed
// errs.ErrBadOption error. Zero values are valid everywhere (they mean
// "use the default"); negatives, NaNs, and inconsistent pairs are not.
func (o *Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("server: %s: %w", fmt.Sprintf(format, args...), errs.ErrBadOption)
	}
	if math.IsNaN(o.QuotaRate) || math.IsInf(o.QuotaRate, 0) {
		return bad("QuotaRate %v must be finite", o.QuotaRate)
	}
	if math.IsNaN(o.QuotaBurst) || math.IsInf(o.QuotaBurst, 0) || o.QuotaBurst < 0 {
		return bad("QuotaBurst %v must be finite and non-negative", o.QuotaBurst)
	}
	if o.QuotaRate > 0 && o.QuotaBurst == 0 {
		return bad("QuotaRate %v needs a positive QuotaBurst", o.QuotaRate)
	}
	if math.IsNaN(o.GlobalRate) || math.IsInf(o.GlobalRate, 0) {
		return bad("GlobalRate %v must be finite", o.GlobalRate)
	}
	if math.IsNaN(o.GlobalBurst) || math.IsInf(o.GlobalBurst, 0) || o.GlobalBurst < 0 {
		return bad("GlobalBurst %v must be finite and non-negative", o.GlobalBurst)
	}
	if o.QueueCap < 0 {
		return bad("QueueCap %d must be non-negative", o.QueueCap)
	}
	if o.DefaultTimeout < 0 {
		return bad("DefaultTimeout %v must be non-negative", o.DefaultTimeout)
	}
	if o.DegradeDeadline < 0 {
		return bad("DegradeDeadline %v must be non-negative", o.DegradeDeadline)
	}
	if o.MaxInflight < 0 {
		return bad("MaxInflight %d must be non-negative", o.MaxInflight)
	}
	if o.MaxBatch < 0 {
		return bad("MaxBatch %d must be non-negative", o.MaxBatch)
	}
	return nil
}

// NewServer validates o and returns a server configured by it.
func NewServer(o Options) (*Server, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cfg := o.withDefaults()
	s := &Server{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.GlobalRate > 0 {
		burst := cfg.GlobalBurst
		if burst <= 0 {
			burst = cfg.GlobalRate // default: one second of headroom
		}
		s.global = newTokenBucket(cfg.GlobalRate, burst)
	}
	return s, nil
}
