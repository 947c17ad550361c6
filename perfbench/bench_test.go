package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selest/client"
	"selest/internal/server"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// TestPercentileRule pins the reported tail: the wanted quantile when at
// least minBeyond samples lie beyond it, else the highest quantile that
// has minBeyond beyond it.
func TestPercentileRule(t *testing.T) {
	for _, n := range []int{20, 21, 100, 500, 999, 1000, 1001, 5000} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		v, err := percentile(sorted, 0.99)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		idx := int(v)
		beyond := n - 1 - idx
		want := int(math.Ceil(0.99*float64(n))) - 1
		if beyond < minBeyond {
			t.Errorf("n=%d: p99 at index %d has %d samples beyond it", n, idx, beyond)
		}
		if idx != min(want, n-1-minBeyond) {
			t.Errorf("n=%d: p99 at index %d, want %d", n, idx, min(want, n-1-minBeyond))
		}
	}
	if _, err := percentile(make([]int64, 2*minBeyond-1), 0.99); err == nil {
		t.Error("percentile of too few samples did not fail")
	}
	med, _ := percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.5)
	if med != 10 {
		t.Errorf("median = %v, want the nearest-rank 10", med)
	}
}

// TestTruthMatchesBruteForce checks the offline Fenwick truth against a
// direct count over the cyclic stream prefix.
func TestTruthMatchesBruteForce(t *testing.T) {
	rng := xrand.New(5)
	base := make([]float64, 300)
	for i := range base {
		base[i] = float64(rng.Intn(60)) // many duplicates
	}
	qs := make([]truthQuery, 500)
	for i := range qs {
		lo := float64(rng.Intn(70)) - 5
		qs[i] = truthQuery{lo: lo, hi: lo + float64(rng.Intn(20)), k: int64(rng.Intn(3 * len(base)))}
	}
	qs = append(qs, truthQuery{lo: 10, hi: 5, k: 400}, truthQuery{lo: 0, hi: 100, k: 0})
	got := truthCounts(base, qs)
	for i, q := range qs {
		var want int64
		for j := int64(0); j < q.k; j++ {
			if v := base[j%int64(len(base))]; v >= q.lo && v <= q.hi {
				want++
			}
		}
		if got[i] != want {
			t.Fatalf("query %d %+v: truth %d, brute force %d", i, q, got[i], want)
		}
	}
}

// TestScoreSkipsZeroTruth follows errmetrics.MRE: zero-truth queries are
// skipped and counted.
func TestScoreSkipsZeroTruth(t *testing.T) {
	var sel []float64
	var n, truth []int64
	for i := 0; i < 40; i++ {
		sel = append(sel, 0.1)
		n = append(n, 1000)
		truth = append(truth, 125) // relative error 0.2 each
	}
	sel, n, truth = append(sel, 0.5), append(n, 1000), append(truth, 0)
	acc, err := score(sel, n, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc.skipped != 1 || acc.used != 40 || math.Abs(acc.mre-0.2) > 1e-12 || math.Abs(acc.qErrP95-1.25) > 1e-12 {
		t.Errorf("score = %+v, want 1 skipped, 40 used, mre 0.2, q-error 1.25", acc)
	}
}

// TestWorkloadsDeterministic checks that a seed fixes every generated
// input, and that another seed changes them.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7)
		c, _ := buildWorkload(name, 8)
		if !reflect.DeepEqual(a.attrs, b.attrs) {
			t.Errorf("%s: same seed, different attributes", name)
		}
		if reflect.DeepEqual(a.attrs, c.attrs) {
			t.Errorf("%s: seeds 7 and 8 gave the same attributes", name)
		}
		sched := func(w *workload, seed uint64) []req {
			cursor := make([]int64, len(w.attrs))
			return w.schedule(w.nominal, time.Second, xrand.New(seed), cursor)
		}
		if !reflect.DeepEqual(sched(a, 1), sched(b, 1)) {
			t.Errorf("%s: same seed, different schedules", name)
		}
		s := sched(a, 1)
		if rate := float64(len(s)); rate < 0.9*a.nominal || rate > 1.1*a.nominal {
			t.Errorf("%s: %v requests scheduled in 1s at %v req/s", name, rate, a.nominal)
		}
		for _, r := range s {
			at := &a.attrs[r.attr]
			if r.op != opIngest && int(r.arg)+batchSize > len(at.pool) {
				t.Fatalf("%s: query index %d outside the pool", name, r.arg)
			}
		}
	}
}

// testDaemon serves an in-process server over the wire protocol.
func testDaemon(t *testing.T) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.NewServer(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := srv.NewWireServer()
	go func() { _ = ws.Serve(ln) }()
	c, err := client.New(client.Options{Addr: ln.Addr().String(), Conns: 2, HealthCheckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
		_ = srv.Close(ctx, "")
	})
	return srv, c
}

// tinyWorkload is one attribute with a uniform stream over [0, 1000).
func tinyWorkload() *workload {
	base := make([]float64, 2000)
	for i := range base {
		base[i] = float64(i % 1000)
	}
	a := attrSpec{tenant: "t", name: "a", cfg: client.AttrConfig{DomainLo: 0, DomainHi: 1000, Seed: 1}, base: base, seedN: 2000}
	for i := 0; i < 16; i++ {
		a.pool = append(a.pool, client.Range{Lo: float64(50 * i), Hi: float64(50*i + 25)})
	}
	a.pool = append(a.pool, a.pool[:batchSize-1]...)
	return &workload{name: "tiny", attrs: []attrSpec{a}, perTenant: 1, tenantCDF: []float64{1},
		readFrac: 1, nominal: 1000, snapshotOnly: true, poolPerSize: 4}
}

// TestLatenessFromDueTime checks the open-loop accounting: requests are
// timed from their due time, so requests sent late because the generator
// was held up carry that wait in their latency.
func TestLatenessFromDueTime(t *testing.T) {
	_, c := testDaemon(t)
	w := tinyWorkload()
	a := &w.attrs[0]
	ctx := context.Background()
	if err := c.CreateAttr(ctx, a.tenant, a.name, a.cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, a.tenant, a.name, a.base); err != nil {
		t.Fatal(err)
	}
	if err := waitFor(5*time.Second, func() (bool, error) {
		res, err := c.Estimate(ctx, a.tenant, a.name, 0, 1000, client.WithFresh())
		return err == nil && res.Generation > 0, nil
	}); err != nil {
		t.Fatal(err)
	}

	g := &gate{}
	gn := newGen(c, w, g)
	reqs := []req{{due: 0}, {due: 0}, {due: 0}, {due: 30 * time.Millisecond, arg: 1}}
	for i := 0; i < 200; i++ {
		reqs = append(reqs, req{due: 0, arg: int64(i % 16)})
	}
	p := gn.run(reqs, 40*time.Millisecond, false)
	if err := g.err(); err != nil {
		t.Fatal(err)
	}
	for i, o := range p.outs {
		if !o.ok {
			t.Fatalf("request %d failed: %v", i, g.firstErr)
		}
		if o.late < 0 || o.lat < o.late {
			t.Fatalf("request %d: late %v, latency %v", i, o.late, o.lat)
		}
	}
	// The request due at 30ms is timed from 30ms, not from the phase
	// start; the 200 due at 0 but scheduled behind it were sent at least
	// 30ms late, and their latency includes that.
	if p.outs[3].lat >= int64(30*time.Millisecond) {
		t.Errorf("request due at 30ms took %v from its due time", time.Duration(p.outs[3].lat))
	}
	for i := 4; i < len(p.outs); i++ {
		if o := p.outs[i]; o.late < int64(30*time.Millisecond) || o.lat < o.late {
			t.Fatalf("request %d due at 0 behind one due at 30ms: late %v, latency %v", i, time.Duration(o.late), time.Duration(o.lat))
		}
	}
	lat := p.latencies(opRead)
	if !sort.SliceIsSorted(lat, func(i, j int) bool { return lat[i] < lat[j] }) || len(lat) != len(reqs) {
		t.Error("latencies are not the sorted latencies of every read")
	}
}

// TestParityWithReference builds the reference exactly as set-up feeds
// the daemon and checks it answers bit-identically to a server fed the
// same way.
func TestParityWithReference(t *testing.T) {
	w := tinyWorkload()
	ref, err := buildReference(w)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close(context.Background(), "")
	_, c := testDaemon(t)
	a := &w.attrs[0]
	inserts := telemetry.Default.Counter("selest_online_inserts_total")
	want := inserts.Value() + int64(a.seedN)
	ctx := context.Background()
	if err := c.CreateAttr(ctx, a.tenant, a.name, a.cfg); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < a.seedN; off += seedChunk {
		if _, err := c.Ingest(ctx, a.tenant, a.name, a.streamValues(off, min(seedChunk, a.seedN-off))); err != nil {
			t.Fatal(err)
		}
	}
	if err := waitFor(5*time.Second, func() (bool, error) { return inserts.Value() >= want, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(ctx, a.tenant, a.name, 0, 1000, client.WithFresh()); err != nil {
		t.Fatal(err)
	}
	var probes []probe
	for _, q := range a.pool {
		res, err := c.Estimate(ctx, a.tenant, a.name, q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{lo: q.Lo, hi: q.Hi, sel: res.Selectivity})
	}
	g := &gate{}
	if n := checkParity(ref, w, probes, g); n != 0 {
		t.Fatalf("%d parity mismatches: %v", n, g.err())
	}
	probes[0].sel += 1e-9
	if n := checkParity(ref, w, probes, g); n != 1 || g.err() == nil {
		t.Errorf("a perturbed answer gave %d mismatches", n)
	}
}

// TestEachAttr checks that set-up's workers visit every attribute exactly
// once and report a failure.
func TestEachAttr(t *testing.T) {
	for _, workers := range []int{1, setupWorkers} {
		seen := make([]atomic.Int32, 500)
		if err := eachAttr(len(seen), workers, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("%d workers: attribute %d visited %d times", workers, i, n)
			}
		}
		boom := errors.New("boom")
		if err := eachAttr(len(seen), workers, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		}); !errors.Is(err, boom) {
			t.Errorf("%d workers: error %v, want %v", workers, err, boom)
		}
	}
}

func TestParseMemStats(t *testing.T) {
	text := "heap profile: ...\n\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 4096\n# NumGC = 3\n# PauseNs = [" +
		"100 200 300" + strings.Repeat(" 0", 253) + "]\n"
	m, err := parseMemStats(text)
	if err != nil {
		t.Fatal(err)
	}
	before := memStats{numGC: 1, totalAlloc: 1024, pauseNs: make([]uint64, 256)}
	cycles, pause, alloc := gcBetween(before, m)
	if cycles != 2 || pause != 500 || alloc != 3072 {
		t.Errorf("gcBetween = %d cycles, %v pause, %d bytes; want 2, 500ns, 3072", cycles, pause, alloc)
	}
	if _, err := parseMemStats("# Alloc = 1\n"); err == nil {
		t.Error("missing fields parsed")
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("# TYPE x counter\nselest_a_total 12\nselest_b{rung=\"fresh\"} 3.5\n\nbad\n")
	if m["selest_a_total"] != 12 || m[`selest_b{rung="fresh"}`] != 3.5 || len(m) != 2 {
		t.Errorf("parseMetrics = %v", m)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, units map[string]string, got map[string]string) {
		if !reflect.DeepEqual(units, got) {
			t.Errorf("%s metrics in BENCHMARK.json %v, command prints %v", kind, got, units)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end_to_end", e2eUnits, e2e)
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layerUnits, layer)
}
