package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"selest/client"
	"selest/internal/server"
	"selest/internal/telemetry"
)

// gate collects correctness violations and the first request failure. A
// run with any violation prints no result.
type gate struct {
	mu         sync.Mutex
	violations int
	first      []string
	firstErr   error
}

func (g *gate) violate(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.violations++
	if len(g.first) < 5 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

func (g *gate) failure(op uint8, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("%s: %w", opNames[op], err)
	}
}

func (g *gate) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.violations == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %v", g.violations, g.first)
}

// probe is one wire answer kept for the parity check.
type probe struct {
	attr   int
	lo, hi float64
	sel    float64
}

// serverConfig converts a client attribute configuration the way the
// daemon does: through the one JSON schema both share.
func serverConfig(c client.AttrConfig) (server.AttrConfig, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return server.AttrConfig{}, err
	}
	var s server.AttrConfig
	err = json.Unmarshal(b, &s)
	return s, err
}

// buildReference builds an in-process server.Server holding exactly the
// state set-up gives the daemon: the same attributes, the same seed
// values in the same order, then one flush per attribute.
func buildReference(w *workload) (*server.Server, error) {
	ref, err := server.NewServer(server.Options{})
	if err != nil {
		return nil, err
	}
	inserts := telemetry.Default.Counter("selest_online_inserts_total")
	for i := range w.attrs {
		a := &w.attrs[i]
		cfg, err := serverConfig(a.cfg)
		if err != nil {
			return nil, err
		}
		if err := ref.CreateAttr(a.tenant, a.name, cfg); err != nil {
			return nil, fmt.Errorf("reference create %s/%s: %w", a.tenant, a.name, err)
		}
		// The drainer inserts in queue order; keeping the backlog under the
		// queue bound means nothing is shed, so the reservoir sees exactly
		// the daemon's sequence.
		base := inserts.Value()
		for off := 0; off < a.seedN; off += seedChunk {
			n := min(seedChunk, a.seedN-off)
			if err := waitFor(10*time.Second, func() (bool, error) {
				return int64(off)-(inserts.Value()-base) <= seedBacklog-int64(n), nil
			}); err != nil {
				return nil, fmt.Errorf("reference drain: %w", err)
			}
			res, err := ref.Ingest(a.tenant, a.name, a.streamValues(off, n))
			if err != nil {
				return nil, fmt.Errorf("reference ingest: %w", err)
			}
			if res.Shed > 0 {
				return nil, fmt.Errorf("reference ingest shed %d values", res.Shed)
			}
		}
		if err := waitFor(10*time.Second, func() (bool, error) {
			return inserts.Value()-base >= int64(a.seedN), nil
		}); err != nil {
			return nil, fmt.Errorf("reference drain: %w", err)
		}
		if _, err := ref.Estimate(context.Background(), a.tenant, a.name, a.cfg.DomainLo, a.cfg.DomainHi, true); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// checkParity compares wire answers bit for bit with the reference.
func checkParity(ref *server.Server, w *workload, probes []probe, g *gate) int {
	mismatches := 0
	for _, p := range probes {
		a := &w.attrs[p.attr]
		res, err := ref.Estimate(context.Background(), a.tenant, a.name, p.lo, p.hi, false)
		if err != nil {
			g.violate("reference estimate %s/%s: %v", a.tenant, a.name, err)
			continue
		}
		if math.Float64bits(res.Selectivity) != math.Float64bits(p.sel) {
			mismatches++
			g.violate("parity: %s/%s [%v, %v] wire %v, in-process %v", a.tenant, a.name, p.lo, p.hi, p.sel, res.Selectivity)
		}
	}
	return mismatches
}

// checkConservation waits for the daemon to drain its ingest queues and
// checks inserted == accepted − shed from its /metrics.
func checkConservation(d *daemon, accepted int64, g *gate) {
	var inserted, shed float64
	err := waitFor(20*time.Second, func() (bool, error) {
		m, err := d.metrics()
		if err != nil {
			return false, err
		}
		inserted, shed = m["selest_online_inserts_total"], m["selest_server_shed_total"]
		return inserted == float64(accepted)-shed, nil
	})
	if err != nil {
		g.violate("conservation: inserted %v != accepted %d - shed %v (%v)", inserted, accepted, shed, err)
	}
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
