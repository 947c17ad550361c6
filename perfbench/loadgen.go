package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"selest/client"
)

// maxOutstanding bounds the generator's in-flight requests; a request due
// while this many are outstanding is refused and counts as failed.
const maxOutstanding = 4096

// outcome is what the generator records for one request. Each request's
// goroutine writes only its own element.
type outcome struct {
	late  int64   // ns from due time to send
	lat   int64   // ns from due time to completion
	sel   float64 // single estimates: the served selectivity
	acked int64   // single estimates: the attribute's acknowledged stream values at send time
	ok    bool
}

// gen is the open-loop load generator: one client, pre-generated
// schedules, and the running totals the correctness gate reads.
type gen struct {
	c *client.Client
	w *workload

	// acked counts each attribute's acknowledged stream values.
	acked []atomic.Int64
	// queued totals the values the server acknowledged.
	queued atomic.Int64
	gate   *gate
	// phases are every phase run, in order.
	phases []*phase
}

func newGen(c *client.Client, w *workload, g *gate) *gen {
	return &gen{c: c, w: w, acked: make([]atomic.Int64, len(w.attrs)), gate: g}
}

// phase is one open-loop run of a schedule.
type phase struct {
	reqs  []req
	outs  []outcome
	wall  time.Duration // first due time to last completion
	dur   time.Duration // scheduled length
	cpu   time.Duration // generator CPU time over the phase
	spans []span        // client-call spans; nil when untraced

	// estimates and degraded count estimate answers, ingested the values
	// the daemon acknowledged.
	estimates, degraded, ingested atomic.Int64
}

// run sends reqs on their schedule, each request from its own goroutine
// so a slow answer never delays the next send, and waits for them all.
func (g *gen) run(reqs []req, dur time.Duration, traced bool) *phase {
	p := &phase{reqs: reqs, outs: make([]outcome, len(reqs)), dur: dur}
	g.phases = append(g.phases, p)
	if traced {
		p.spans = make([]span, len(reqs))
	}
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	cpu0 := processCPU()
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		if outstanding.Load() >= maxOutstanding {
			p.outs[i] = outcome{late: int64(time.Since(due)), lat: math.MaxInt64}
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			g.fire(p, i, due)
		}(i, due)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	return p
}

// fire sends one request and records its outcome.
func (g *gen) fire(p *phase, i int, due time.Time) {
	r, o := &p.reqs[i], &p.outs[i]
	a := &g.w.attrs[r.attr]
	ctx := context.Background()
	sent := time.Now()
	o.late = int64(sent.Sub(due))
	var err error
	switch r.op {
	case opRead, opFresh:
		q := a.pool[r.arg]
		o.acked = g.acked[r.attr].Load()
		var res client.Result
		if r.op == opFresh {
			res, err = g.c.Estimate(ctx, a.tenant, a.name, q.Lo, q.Hi, client.WithFresh())
		} else {
			res, err = g.c.Estimate(ctx, a.tenant, a.name, q.Lo, q.Hi)
		}
		if err == nil {
			o.sel = res.Selectivity
			g.check(p, res)
		}
	case opBatch:
		var res []client.Result
		res, err = g.c.EstimateBatch(ctx, a.tenant, a.name, a.pool[r.arg:r.arg+batchSize])
		if err == nil && len(res) != batchSize {
			err = fmt.Errorf("batch of %d answered %d", batchSize, len(res))
		}
		for _, x := range res {
			g.check(p, x)
		}
	case opIngest:
		var ir client.IngestResult
		ir, err = g.c.Ingest(ctx, a.tenant, a.name, a.streamValues(int(r.arg), g.w.ingestSize))
		if err == nil {
			g.acked[r.attr].Add(int64(ir.Queued))
			g.queued.Add(int64(ir.Queued))
			p.ingested.Add(int64(ir.Queued))
		}
	}
	done := time.Now()
	if p.spans != nil {
		p.spans[i] = span{name: "client." + opNames[r.op], id: int64(i), parent: -1, start: sent, end: done}
	}
	if err != nil {
		g.gate.failure(r.op, err)
		o.lat = math.MaxInt64
		return
	}
	o.ok = true
	o.lat = int64(done.Sub(due))
}

// check applies the per-answer correctness rules: every selectivity is
// finite and in [0, 1], and a snapshot-only workload is answered from the
// snapshot rung.
func (g *gen) check(p *phase, res client.Result) {
	p.estimates.Add(1)
	if res.Degraded {
		p.degraded.Add(1)
	}
	s := res.Selectivity
	if math.IsNaN(s) || s < 0 || s > 1 {
		g.gate.violate("selectivity %v outside [0, 1]", s)
	}
	if g.w.snapshotOnly && res.Rung != "snapshot" {
		g.gate.violate("answer from rung %q, want snapshot", res.Rung)
	}
}

// latencies returns the phase's service latencies of one op in ns,
// failed requests counted as infinitely late, sorted ascending.
func (p *phase) latencies(op uint8) []int64 {
	var out []int64
	for i := range p.reqs {
		if p.reqs[i].op == op {
			out = append(out, p.outs[i].service())
		}
	}
	sortInt64(out)
	return out
}

// blockSize is the number of consecutive requests whose own quantile the
// steady latency figures take the median of.
const blockSize = 1000

// steady returns the q-quantile of op's service latencies (send to
// completion) as the median over consecutive blocks of blockSize requests
// (in schedule order) of each block's quantile, so a few seconds of host
// noise move one block, not the figure. With fewer than three blocks it is
// the quantile over all of them.
//
// The figures start at the send, not the due time, because on a shared
// virtual machine the hypervisor delays the generator's wake-ups
// (milliseconds at p99, in nearly every 100 ms window under load) while the
// requests are served in about a millisecond: timed from due time, the
// figures would measure the host rather than selest. The lateness is
// reported on its own (loadgen.late_p99_us, loadgen.late_share) and bounds
// the run's validity.
func (p *phase) steady(op uint8, q float64) (float64, error) {
	var lats []int64
	for i := range p.reqs {
		if p.reqs[i].op == op {
			lats = append(lats, p.outs[i].service())
		}
	}
	var per []float64
	for b := 0; b+blockSize <= len(lats); b += blockSize {
		block := append([]int64(nil), lats[b:b+blockSize]...)
		sortInt64(block)
		v, err := percentile(block, q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	if len(per) >= 3 {
		return median(per), nil
	}
	sortInt64(lats)
	return percentile(lats, q)
}

// service is the request's latency from send to completion; infinite for
// a failed request.
func (o *outcome) service() int64 {
	if !o.ok {
		return math.MaxInt64
	}
	return o.lat - o.late
}

// lateShare is the share of the phase's requests sent more than a
// millisecond after their due time.
func (p *phase) lateShare() float64 {
	n := 0
	for i := range p.outs {
		if p.outs[i].late > int64(time.Millisecond) {
			n++
		}
	}
	return float64(n) / float64(max(len(p.outs), 1))
}

// lateness returns every request's send lateness in ns, sorted.
func (p *phase) lateness() []int64 {
	out := make([]int64, len(p.outs))
	for i := range p.outs {
		out[i] = p.outs[i].late
	}
	sortInt64(out)
	return out
}

// counts returns attempted and failed requests.
func (p *phase) counts() (attempted, failed int) {
	for i := range p.outs {
		if !p.outs[i].ok {
			failed++
		}
	}
	return len(p.outs), failed
}

// okRate is completed requests per second of schedule.
func (p *phase) okRate() float64 {
	a, f := p.counts()
	return float64(a-f) / p.dur.Seconds()
}

// sleep blocks the calling goroutine's thread in nanosleep. time.Sleep
// rounds sub-millisecond waits up to a millisecond when the runtime is
// idle, which would make the generator itself the largest source of
// latency; the kernel's high-resolution timer wakes within tens of
// microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
