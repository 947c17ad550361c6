// Command perfbench is selest's repository benchmark. It boots a real
// selestd, drives it over selestwire with the public client package from
// an open-loop generator, checks every answer, and prints one JSON result
// line with the end-to-end metrics (-trace 0) or the per-layer metrics of
// a traced run (-trace 1). See README.md in this directory.
//
//	go build -o perfbench . && go build -o selestd selest/cmd/selestd
//	./perfbench -selestd ./selestd -workload serve-read -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selest/client"
	"selest/internal/xrand"
)

const (
	// setupReps is how many times a run boots and sets up a daemon;
	// setup_s is their median and the last daemon serves the traffic.
	setupReps = 5
	// seedBacklog bounds seed values sent but not yet inserted, below the
	// daemon's 8192-value per-attribute ingest queue, so set-up never
	// sheds; a seed no larger fits the queue whole and is not paced.
	seedBacklog = 6144
	// maxFailedRatio is the failed_ratio limit a goodput rate must meet.
	maxFailedRatio = 0.001
	// lateLimit bounds the generator's median send lateness. Beyond it the
	// generator is not keeping its schedule and the measurement is
	// invalid. It is generous because a loaded hypervisor delays the
	// generator's wake-ups without the generator being at fault.
	lateLimit = 10 * time.Millisecond
	// p99Limit is the read p99 a goodput rate must meet. It sits well
	// above the few milliseconds a loaded hypervisor adds to the tail, so
	// goodput finds where the daemon starts to queue whatever the host's
	// load.
	p99Limit = 50 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	selestd  string
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-read, ingest-refit or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	flag.StringVar(&o.selestd, "selestd", "", "path to the selestd binary")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for snapshots and span dumps")
	flag.Parse()
	o.trace = trace == 1
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if o.selestd == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		log.Printf("FAILED: %v", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Printf("FAILED: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects named values; the first error sticks.
type metrics struct {
	units map[string]string
	out   map[string]metricValue
	err   error
}

func newMetrics(units map[string]string) *metrics {
	return &metrics{units: units, out: make(map[string]metricValue)}
}

func (m *metrics) set(name string, v float64) {
	u, ok := m.units[name]
	switch {
	case !ok:
		m.fail(fmt.Errorf("metric %s is not declared", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.fail(fmt.Errorf("metric %s is %v", name, v))
	default:
		m.out[name] = metricValue{Value: v, Unit: u}
	}
}

func (m *metrics) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// pct sets name to the q-quantile of sorted ns latencies divided by div.
func (m *metrics) pct(name string, sorted []int64, q, div float64) {
	v, err := percentile(sorted, q)
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	m.set(name, v/div)
}

// done checks that exactly the declared metrics were set.
func (m *metrics) done() (map[string]metricValue, error) {
	if m.err != nil {
		return nil, m.err
	}
	for name := range m.units {
		if _, ok := m.out[name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return m.out, nil
}

// setupRecord is what one set-up measured.
type setupRecord struct {
	elapsed   time.Duration
	ingestLat []int64 // seed ingest latencies, ns
	freshLat  []int64 // priming fresh-estimate latencies, ns
	accepted  int64   // seed values the daemon acknowledged
}

// setupWorkers is how many attributes a set-up brings up at once, so that
// its time is the daemon's work rather than a chain of round trips, each
// as slow as the host is to wake a thread. Each attribute's own requests
// stay in order, so its reservoir sees its seed values in stream order,
// as the reference's does.
const setupWorkers = 4

// eachAttr calls f for every attribute index from workers goroutines and
// returns the first error once all of them have stopped.
func eachAttr(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make(chan error, workers)
	for k := 0; k < workers; k++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					errs <- nil
					return
				}
				if err := f(i); err != nil {
					next.Store(int64(n)) // the others stop after their current attribute
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for k := 0; k < workers; k++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp boots a daemon and brings it to serving: create every attribute,
// ingest its seed values in stream order without shedding, and prime a
// fit, until every attribute serves a generation > 0.
func setUp(o options, dir string, rep int, w *workload) (*daemon, *client.Client, *setupRecord, error) {
	sr := &setupRecord{}
	start := time.Now()
	d, err := startDaemon(o.selestd, dir, rep, runtime.NumCPU())
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := client.New(client.Options{Addr: d.wire, Conns: 2, RequestTimeout: 5 * time.Second, HealthCheckEvery: -1})
	if err != nil {
		d.kill()
		return nil, nil, nil, err
	}
	fail := func(err error) (*daemon, *client.Client, *setupRecord, error) {
		c.Close()
		d.kill()
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ctx := context.Background()
	// A seed that fits the daemon's per-attribute ingest queue cannot be
	// shed. A larger one is paced against the drainers, through the
	// daemon-wide insert count, one attribute at a time: pacing several
	// only adds polling.
	workers := setupWorkers
	for i := range w.attrs {
		if w.attrs[i].seedN > seedBacklog {
			workers = 1
		}
	}
	// mu guards sent, inserted and sr.
	var (
		mu             sync.Mutex
		sent, inserted int64
	)
	refresh := func() error {
		m, err := d.metrics()
		if err == nil {
			inserted = int64(m["selest_online_inserts_total"])
		}
		return err
	}
	err = eachAttr(len(w.attrs), workers, func(i int) error {
		a := &w.attrs[i]
		if err := c.CreateAttr(ctx, a.tenant, a.name, a.cfg); err != nil {
			return fmt.Errorf("create %s/%s: %w", a.tenant, a.name, err)
		}
		for off := 0; off < a.seedN; off += seedChunk {
			n := min(seedChunk, a.seedN-off)
			mu.Lock()
			if a.seedN > seedBacklog && sent+int64(n)-inserted > seedBacklog {
				if err := waitFor(30*time.Second, func() (bool, error) {
					return sent+int64(n)-inserted <= seedBacklog, refresh()
				}); err != nil {
					mu.Unlock()
					return fmt.Errorf("seed backlog: %w", err)
				}
			}
			sent += int64(n)
			mu.Unlock()
			t := time.Now()
			ir, err := c.Ingest(ctx, a.tenant, a.name, a.streamValues(off, n))
			if err != nil {
				return fmt.Errorf("seed ingest: %w", err)
			}
			if ir.Shed > 0 {
				return fmt.Errorf("seed ingest shed %d values", ir.Shed)
			}
			mu.Lock()
			sr.ingestLat = append(sr.ingestLat, int64(time.Since(t)))
			sr.accepted += int64(ir.Queued)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if err := waitFor(30*time.Second, func() (bool, error) { return inserted == sent, refresh() }); err != nil {
		return fail(fmt.Errorf("seed drain: inserted %d of %d: %w", inserted, sent, err))
	}
	err = eachAttr(len(w.attrs), workers, func(i int) error {
		a := &w.attrs[i]
		t := time.Now()
		res, err := c.Estimate(ctx, a.tenant, a.name, a.cfg.DomainLo, a.cfg.DomainHi, client.WithFresh())
		if err != nil {
			return fmt.Errorf("priming fit %s/%s: %w", a.tenant, a.name, err)
		}
		if res.Generation == 0 || res.Rung != "fresh" {
			return fmt.Errorf("priming fit %s/%s answered rung %s generation %d", a.tenant, a.name, res.Rung, res.Generation)
		}
		mu.Lock()
		sr.freshLat = append(sr.freshLat, int64(time.Since(t)))
		mu.Unlock()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	sr.elapsed = time.Since(start)
	return d, c, sr, nil
}

// probeAll asks the first queries of every attribute's pool over the
// wire and keeps the answers for the parity check.
func probeAll(c *client.Client, w *workload, g *gate) ([]probe, error) {
	var out []probe
	for i := range w.attrs {
		a := &w.attrs[i]
		for _, q := range a.pool[:4] {
			res, err := c.Estimate(context.Background(), a.tenant, a.name, q.Lo, q.Hi)
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			if res.Rung != "snapshot" {
				g.violate("probe %s/%s answered from rung %s", a.tenant, a.name, res.Rung)
			}
			out = append(out, probe{attr: i, lo: q.Lo, hi: q.Hi, sel: res.Selectivity})
		}
	}
	return out, nil
}

// window is the outside-in view of the daemon at one instant.
type window struct {
	metrics map[string]float64
	mem     memStats
	cpu     time.Duration
	hwmKB   int64
	stats   client.Stats
}

func observe(d *daemon, c *client.Client) (window, error) {
	var s window
	var err error
	if s.metrics, err = d.metrics(); err != nil {
		return s, err
	}
	if s.mem, err = d.memstats(); err != nil {
		return s, err
	}
	if s.cpu, s.hwmKB, err = d.procStats(); err != nil {
		return s, err
	}
	s.stats = c.Stats()
	return s, nil
}

// delta is a /metrics series' change between two windows.
func delta(a, b window, series string) float64 { return b.metrics[series] - a.metrics[series] }

// meets reports whether a ladder step met every goodput condition.
func meets(p *phase) (bool, string) {
	p99, err := p.steady(opRead, 0.99)
	if err != nil {
		return false, err.Error()
	}
	att, failed := p.counts()
	late, _ := percentile(p.lateness(), 0.5)
	switch {
	case late > float64(lateLimit):
		return false, fmt.Sprintf("generator late p50 %.0fus: rate not measurable", late/1e3)
	case p99 > float64(p99Limit):
		return false, fmt.Sprintf("read p99 %.0fus", p99/1e3)
	case float64(failed) > maxFailedRatio*float64(att):
		return false, fmt.Sprintf("%d of %d failed", failed, att)
	}
	// A growing backlog shows as the last third of the step's requests
	// completing much later than the first third.
	var first, last []int64
	for i := range p.reqs {
		switch due := p.reqs[i].due; {
		case due < p.dur/3:
			first = append(first, p.outs[i].lat)
		case due >= p.dur*2/3:
			last = append(last, p.outs[i].lat)
		}
	}
	sortInt64(first)
	sortInt64(last)
	m1, err1 := percentile(first, 0.5)
	m2, err2 := percentile(last, 0.5)
	if err1 != nil || err2 != nil || m2 > 2*m1+float64(p99Limit)/2 {
		return false, fmt.Sprintf("backlog grows: p50 %.0fus in the first third, %.0fus in the last", m1/1e3, m2/1e3)
	}
	return true, fmt.Sprintf("read p99 %.0fus", p99/1e3)
}

// goodput finds the highest rate of the workload's fixed ladder meeting
// every limit, and returns the step run there with the daemon's CPU time
// over it. It tries the top rate first and bisects the rates below it
// only when the top misses, so a run whose daemon keeps up measures one
// step of the whole budget; each bisection step lasts a third of it.
func goodput(gn *gen, d *daemon, w *workload, budget time.Duration, rng *xrand.RNG, cursor []int64) (*phase, time.Duration, error) {
	const settle = 200 * time.Millisecond
	var best *phase
	var bestCPU time.Duration
	lo, hi := -1, len(w.ladder)
	for hi-lo > 1 {
		mid, dur := (lo+hi)/2, budget/3
		if hi == len(w.ladder) {
			mid, dur = hi-1, budget
		}
		rate := w.ladder[mid]
		cpu0, _, err := d.procStats()
		if err != nil {
			return nil, 0, err
		}
		p := gn.run(w.schedule(rate, dur, rng, cursor), dur, false)
		cpu1, _, err := d.procStats()
		if err != nil {
			return nil, 0, err
		}
		ok, why := meets(p)
		log.Printf("ladder %s %.0f req/s: meets=%v (%s), completed %.0f req/s, %.1f%% sent late",
			w.name, rate, ok, why, p.okRate(), 100*p.lateShare())
		if ok {
			lo, best, bestCPU = mid, p, cpu1-cpu0
		} else {
			hi = mid
		}
		time.Sleep(settle)
	}
	if best == nil {
		return nil, 0, fmt.Errorf("goodput: even %.0f req/s misses the limits", w.ladder[0])
	}
	return best, bestCPU, nil
}

func run(o options) (*result, error) {
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log.Printf("workload %s seed %d: %d attributes; host cpus %d, generator GOMAXPROCS %d, selestd GOMAXPROCS %d, %s",
		w.name, o.seed, len(w.attrs), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	g := &gate{}
	var (
		d        *daemon
		c        *client.Client
		sr       *setupRecord
		setups   []float64
		ingestSU []int64
		freshSU  []int64
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			c.Close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if d, c, sr, err = setUp(o, dir, rep, w); err != nil {
			return nil, err
		}
		setups = append(setups, sr.elapsed.Seconds())
		ingestSU = append(ingestSU, sr.ingestLat...)
		freshSU = append(freshSU, sr.freshLat...)
	}
	live := true
	defer func() {
		if live {
			c.Close()
			d.kill()
		}
	}()
	log.Printf("set-up %v s (median %.3f)", setups, median(setups))

	gn := newGen(c, w, g)
	cursor := make([]int64, len(w.attrs))
	for i := range w.attrs {
		gn.acked[i].Store(int64(w.attrs[i].seedN))
		cursor[i] = int64(w.attrs[i].seedN)
	}
	gn.queued.Store(sr.accepted)
	probes, err := probeAll(c, w, g)
	if err != nil {
		return nil, err
	}

	rng := xrand.New(uint64(o.seed)*0x2545F4914F6CDD1D + 7)
	total := time.Duration(o.seconds) * time.Second
	nomDur := total / 2
	w0, err := observe(d, c)
	if err != nil {
		return nil, err
	}
	nom := gn.run(w.schedule(w.nominal, nomDur, rng, cursor), nomDur, false)
	w1, err := observe(d, c)
	if err != nil {
		return nil, err
	}
	var traced, best *phase
	var bestCPU time.Duration
	if o.trace {
		traced = gn.run(w.schedule(w.nominal, nomDur, rng, cursor), nomDur, true)
	} else {
		if best, bestCPU, err = goodput(gn, d, w, total-nomDur, rng, cursor); err != nil {
			return nil, err
		}
	}
	wEnd, err := observe(d, c)
	if err != nil {
		return nil, err
	}
	checkConservation(d, gn.queued.Load(), g)

	ref, err := buildReference(w)
	if err != nil {
		return nil, err
	}
	defer ref.Close(context.Background(), "")
	var rp *replay
	if o.trace {
		if rp, err = replayClient(c, ref, w, nom); err != nil {
			return nil, err
		}
	}
	c.Close()
	live = false
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Parity: the set-up probes, plus every 97th window answer of a
	// workload whose state the window does not change.
	if w.snapshotOnly {
		for i := 0; i < len(nom.reqs); i += 97 {
			r, out := &nom.reqs[i], &nom.outs[i]
			if r.op == opRead && out.ok {
				q := w.attrs[r.attr].pool[r.arg]
				probes = append(probes, probe{attr: int(r.attr), lo: q.Lo, hi: q.Hi, sel: out.sel})
			}
		}
	}
	mismatches := checkParity(ref, w, probes, g)
	log.Printf("parity: %d answers compared, %d mismatches", len(probes), mismatches)
	if o.trace {
		ingests := recordedIngests(w, nom)
		if err := rp.replayServer(ref, w, nom, ingests); err != nil {
			return nil, err
		}
		if err := rp.replayWire(w, nom); err != nil {
			return nil, err
		}
		if err := rp.replayOnline(w, nom, ingests); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.csv", w.name, o.seed)), traced.spans, rp.tr.spans); err != nil {
			return nil, err
		}
	}

	acc, err := servedAccuracy(w, gn.phases)
	if err != nil {
		return nil, err
	}
	log.Printf("accuracy: %d served single estimates, %d scored, %d zero-truth skipped; mre %.4f q-error p95 %.3f max %.1f",
		acc.served, acc.used, acc.skipped, acc.mre, acc.qErrP95, acc.maxQErr)
	if err := g.err(); err != nil {
		return nil, err
	}

	attempted, failed := nom.counts()
	late, _ := percentile(nom.lateness(), 0.5)
	log.Printf("nominal %.0f req/s for %v: %d attempted, %d failed (first error: %v), completed %.0f req/s, generator late p50 %.0fus, CPU cores: generator %.2f, selestd %.2f; refits %.0f; %.1f%% of requests sent late; selestd peak RSS %.1f MB after set-up, %.1f after the nominal phase, %.1f at the end",
		w.nominal, nomDur, attempted, failed, g.firstErr, nom.okRate(), late/1e3, nom.cpu.Seconds()/nom.wall.Seconds(),
		(w1.cpu-w0.cpu).Seconds()/nom.wall.Seconds(), delta(w0, w1, "selest_online_refits_total"), 100*nom.lateShare(),
		float64(w0.hwmKB)/1024, float64(w1.hwmKB)/1024, float64(wEnd.hwmKB)/1024)
	if late > float64(lateLimit) {
		return nil, fmt.Errorf("run invalid: generator sent %.0fus late at p50 (limit %v)", late/1e3, lateLimit)
	}

	var m *metrics
	if o.trace {
		m = newMetrics(layerUnits)
		layerMetrics(m, nom, traced, w0, w1, rp)
		latencies(m, w, nom, ingestSU, freshSU)
	} else {
		m = newMetrics(e2eUnits)
		m.set("setup_s", median(setups))
		m.set("goodput_rps", best.okRate())
		m.set("mre", acc.mre)
		m.set("q_error_p95", acc.qErrP95)
		// At the goodput rate: the nominal rate leaves the CPUs mostly idle,
		// and waking them costs a share that moves with the host's load.
		a, f := best.counts()
		m.set("server_cpu_us_per_req", bestCPU.Seconds()*1e6/float64(a-f))
		// The peak through set-up and the nominal phase: the ladder's
		// top rate overlaps refits by chance, and its peak with them.
		m.set("server_rss_mb", float64(w1.hwmKB)/1024)
	}
	out, err := m.done()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		log.Printf("  %-32s %14.4f %s", k, out[k].Value, out[k].Unit)
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// latencies sets the per-layer latency figures of the nominal phase. A
// workload without ingest or fresh traffic in the window takes those from
// its set-ups' seed ingests and priming fits.
func latencies(m *metrics, w *workload, nom *phase, ingestSU, freshSU []int64) {
	steady := func(name string, op uint8, q, div float64) {
		v, err := nom.steady(op, q)
		if err != nil {
			m.fail(fmt.Errorf("%s: %w", name, err))
			return
		}
		m.set(name, v/div)
	}
	steady("latency.read_p50_us", opRead, 0.5, 1e3)
	steady("latency.read_p99_us", opRead, 0.99, 1e3)
	steady("latency.batch_p99_us", opBatch, 0.99, 1e3)
	if w.ingestSize > 0 {
		steady("latency.ingest_p50_us", opIngest, 0.5, 1e3)
		steady("latency.ingest_p99_us", opIngest, 0.99, 1e3)
		steady("latency.fresh_p99_ms", opFresh, 0.99, 1e6)
		return
	}
	sortInt64(ingestSU)
	sortInt64(freshSU)
	m.pct("latency.ingest_p50_us", ingestSU, 0.5, 1e3)
	m.pct("latency.ingest_p99_us", ingestSU, 0.99, 1e3)
	m.pct("latency.fresh_p99_ms", freshSU, 0.99, 1e6)
}

// servedAccuracy scores every single estimate the phases served against
// the exact count of the stream values acknowledged when it was sent.
func servedAccuracy(w *workload, phases []*phase) (accuracy, error) {
	outs := make([][]*outcome, len(w.attrs))
	queries := make([][]truthQuery, len(w.attrs))
	for _, p := range phases {
		for i := range p.reqs {
			r, o := &p.reqs[i], &p.outs[i]
			if (r.op == opRead || r.op == opFresh) && o.ok {
				q := w.attrs[r.attr].pool[r.arg]
				outs[r.attr] = append(outs[r.attr], o)
				queries[r.attr] = append(queries[r.attr], truthQuery{lo: q.Lo, hi: q.Hi, k: o.acked})
			}
		}
	}
	var sel []float64
	var n, truth []int64
	for ai := range w.attrs {
		if len(outs[ai]) == 0 {
			continue
		}
		for _, o := range outs[ai] {
			sel = append(sel, o.sel)
			n = append(n, o.acked)
		}
		truth = append(truth, truthCounts(w.attrs[ai].base, queries[ai])...)
	}
	return score(sel, n, truth)
}

// e2eUnits declares the end-to-end metrics and their units, as
// BENCHMARK.json lists them.
var e2eUnits = map[string]string{
	"setup_s":               "s",
	"goodput_rps":           "1/s",
	"mre":                   "ratio",
	"q_error_p95":           "ratio",
	"server_cpu_us_per_req": "us",
	"server_rss_mb":         "MB",
}

// writeSpans writes the run's spans as CSV: name, id, parent, start and
// end in ns from the first span.
func writeSpans(path string, groups ...[]span) error {
	var b strings.Builder
	b.WriteString("name,id,parent,start_ns,end_ns\n")
	var t0 time.Time
	for _, g := range groups {
		for _, s := range g {
			if s.name == "" {
				continue
			}
			if t0.IsZero() {
				t0 = s.start
			}
			fmt.Fprintf(&b, "%s,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.start.Sub(t0), s.end.Sub(t0))
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
