// Replica routing: the client-side half of the scale-out story
// (DESIGN.md §15). Every replica gets its own transport (its own
// pipelined connection pool); a rendezvous-hash ring maps each tenant to
// an ordered preference list over them; and a jittered background
// health checker maintains per-replica up/down state so routing walks
// past a dead replica instead of paying its dial timeout on every call.
//
// Failure classification is deliberately narrow:
//
//   - connErr (transport-level failures: dial refused, connection reset,
//     read/write errors — everything that is not a typed server answer
//     and not the caller's own context) both fails the call over AND
//     marks the replica down. The server did not answer; assume the
//     process is gone until a health probe says otherwise.
//   - failsOver additionally covers server answers that mean "this
//     replica cannot serve you but another might": internal errors,
//     draining, timeouts. The replica is alive (it answered!), so it is
//     not marked down — the next attempt just prefers its neighbour.
//   - Everything else (bad request, not found, conflict, over-quota)
//     stays put. Caller mistakes fail identically everywhere, and an
//     over-quota refusal carries a Retry-After hint that jumping
//     replicas would dodge without the tenant's bucket getting any
//     emptier where it counts.
package client

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"selest/internal/cluster"
)

// replica is one fleet member: its address, its transport (lazy
// connection pool), and the routing health bit.
type replica struct {
	addr string
	t    *wireTransport
	down atomic.Bool
}

// markUp clears the down bit, cheaply: the read avoids a contended
// store on every successful call.
func (r *replica) markUp() {
	if r.down.Load() {
		r.down.Store(false)
	}
}

// routeFor returns tenant's preference list: the ring's top Replication
// replicas, best first. With one replica there is nothing to rank.
func (c *Client) routeFor(tenant string) []*replica {
	if len(c.reps) == 1 {
		return c.reps
	}
	addrs := c.ring.Replicas(tenant)
	pref := make([]*replica, len(addrs))
	for i, a := range addrs {
		pref[i] = c.byAddr[a]
	}
	return pref
}

// pick returns the replica for a (possibly failed-over) attempt: the
// first up replica at or after offset fo in preference order. With the
// whole preference list down it returns pref[fo%len] anyway — when
// everyone looks dead the only useful move is to try one and let the
// attempt be the probe.
func pick(pref []*replica, fo int) *replica {
	n := len(pref)
	for i := 0; i < n; i++ {
		if rep := pref[(fo+i)%n]; !rep.down.Load() {
			return rep
		}
	}
	return pref[fo%n]
}

// connErr reports a transport-level failure: no typed server answer came
// back and the caller did not give up on its own. These mark the replica
// down.
func connErr(err error) bool {
	var ae *APIError
	return err != nil && !errors.As(err, &ae) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// failsOver reports whether the next ring replica might answer where
// this one could not — connection-class failures plus the 5xx-class
// server answers (internal, draining, timeout).
func failsOver(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case CodeInternal, CodeDraining, CodeTimeout:
			return true
		}
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// healthJitter spreads one health-check wait over U(every/2, 3·every/2):
// the mean stays at HealthCheckEvery, but a fleet of clients booted by
// the same deploy never synchronises its pings against one daemon.
func healthJitter(every time.Duration, rng *rand.Rand) time.Duration {
	if every <= 0 {
		return every
	}
	return every/2 + time.Duration(rng.Int63n(int64(every)+1))
}

// healthLoop drives every replica's up/down bit: each (jittered) cycle
// probes each replica's transport, which pings idle pooled connections
// and dial-probes when it has none. A clean probe re-admits the replica
// to routing; a connection-class failure ejects it; a typed server
// answer (draining, say) leaves the bit alone — the process is alive,
// and the routing classification in do/doAll already knows what to do
// with its answers.
func (c *Client) healthLoop() {
	defer close(c.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		t := time.NewTimer(healthJitter(c.opts.HealthCheckEvery, rng))
		select {
		case <-c.stop:
			t.Stop()
			return
		case <-t.C:
		}
		for _, rep := range c.reps {
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.DialTimeout)
			err := rep.t.healthCheck(ctx)
			cancel()
			switch {
			case err == nil:
				rep.markUp()
			case connErr(err):
				if !rep.down.Swap(true) {
					c.ejected.Add(1)
				}
			}
		}
	}
}

// newRing builds the routing ring over the (already validated,
// defaulted) option addresses.
func newRing(opts Options) (*cluster.Ring, error) {
	return cluster.New(opts.Addrs, opts.Replication)
}
