package client

import (
	"math"
	"testing"
	"time"
)

// TestResolveBudgetMs pins the budget the server hears. A
// sub-millisecond budget must round up, not arrive as 0 ("no budget",
// which the server replaces with its 5 s default, so a fresh read runs
// its full flush instead of degrading), and a budget past what uint32
// milliseconds hold must clamp, not wrap (50 days used to arrive as
// 6 h 57 m). The client's own deadline stays the unrounded budget.
func TestResolveBudgetMs(t *testing.T) {
	c := &Client{opts: Options{RequestTimeout: 5 * time.Second, MaxRetries: 3}}
	for _, tc := range []struct {
		timeout time.Duration
		wantMs  uint32
	}{
		{0, 5000}, // no WithTimeout: Options.RequestTimeout
		{500 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{50 * 24 * time.Hour, math.MaxUint32},
	} {
		var opts []CallOption
		if tc.timeout > 0 {
			opts = append(opts, WithTimeout(tc.timeout))
		}
		budget, retries, meta := c.resolve(c.callOpts(opts))
		if meta.TimeoutMs != tc.wantMs {
			t.Errorf("WithTimeout(%v): server hears %d ms, want %d", tc.timeout, meta.TimeoutMs, tc.wantMs)
		}
		if tc.timeout > 0 && budget != tc.timeout {
			t.Errorf("WithTimeout(%v): client deadline %v", tc.timeout, budget)
		}
		if retries != 3 {
			t.Errorf("WithTimeout(%v): %d retries, want Options.MaxRetries 3", tc.timeout, retries)
		}
	}
}
