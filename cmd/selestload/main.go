// Command selestload drives closed-loop mixed read/ingest traffic at a
// running selestd, or a replica fleet, through the native client
// package and reports exact latency percentiles. It is the load half of
// scripts/bench_cluster.sh (BENCH_cluster.json); perfbench, its own
// module, is the repository's end-to-end benchmark.
//
// Each worker loops over a -read-frac coin: reads are single estimates
// (a -batch-frac slice of them batched to amortise transport), writes
// are -ingest-batch values of uniform noise. The client package
// supplies the production behaviour: per-request -timeout budgets
// announced to the server, bounded retries with full-jitter backoff
// honouring throttle hints, and typed errors.
//
// Latencies are recorded per successful call (a call's internal retries
// burn its own clock), merged across workers, and reported as
// p50/p99/p999 alongside throughput, retry, shed, and error counts, as a
// JSON array in the same record shape the other BENCH_*.json files use.
//
// -addr takes the address of selestd's wire listener. With a
// comma-separated list the workload drives a fleet through the cluster
// client: tenants shard over the replicas by rendezvous hash
// (-replication ring copies each), and the records carry the fleet size.
//
// Example:
//
//	selestload -addr 127.0.0.1:8766 -duration 10s -workers 32
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"selest/client"
)

type options struct {
	addrs       []string
	replication int
	duration    time.Duration
	workers     int
	conns       int
	tenants     int
	attrs       int
	readFrac    float64
	batchFrac   float64
	batchSize   int
	ingestBatch int
	freshFrac   float64
	timeout     time.Duration
	retries     int
	retryBase   time.Duration
	retryMax    time.Duration
	seedValues  int
	out         string
	seed        int64
}

// result is one worker's tally; workers never share state while the
// clock runs.
type result struct {
	readNs   []int64
	ingestNs []int64
	failures int64
	shed     int64
	queued   int64
}

func main() {
	var o options
	addr := flag.String("addr", "", "address of selestd's wire listener; a comma-separated list drives a replica fleet, tenants routed by rendezvous hash")
	flag.IntVar(&o.replication, "replication", 1, "ring replicas per tenant when -addr lists a fleet")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "measured load duration")
	flag.IntVar(&o.workers, "workers", 32, "concurrent client workers")
	flag.IntVar(&o.conns, "conns", 4, "connection-pool size per replica")
	flag.IntVar(&o.tenants, "tenants", 4, "tenants to spread traffic over")
	flag.IntVar(&o.attrs, "attrs", 2, "attributes per tenant")
	flag.Float64Var(&o.readFrac, "read-frac", 0.8, "fraction of requests that are estimates")
	flag.Float64Var(&o.batchFrac, "batch-frac", 0.2, "fraction of reads sent as batch requests")
	flag.IntVar(&o.batchSize, "batch", 16, "queries per batch request")
	flag.IntVar(&o.ingestBatch, "ingest-batch", 64, "values per ingest request")
	flag.Float64Var(&o.freshFrac, "fresh-frac", 0.01, "fraction of estimates demanding a fresh fit")
	flag.DurationVar(&o.timeout, "timeout", time.Second, "per-request client timeout")
	flag.IntVar(&o.retries, "retries", 3, "max retries per request (full-jitter backoff, throttle hints honoured)")
	flag.DurationVar(&o.retryBase, "retry-base", 0, "retry backoff base delay (0 = client default 10ms); keep small against admission-capped servers so the closed loop paces on throttle hints")
	flag.DurationVar(&o.retryMax, "retry-max", 0, "retry backoff delay cap (0 = client default 2s)")
	flag.IntVar(&o.seedValues, "seed-values", 4096, "values ingested per attribute before the clock starts")
	flag.StringVar(&o.out, "out", "-", "output file ('-' for stdout)")
	flag.Int64Var(&o.seed, "seed", 1, "workload RNG seed")
	flag.Parse()
	log.SetPrefix("selestload: ")
	log.SetFlags(0)
	if *addr == "" {
		log.Fatal("-addr is required")
	}
	o.addrs = strings.Split(*addr, ",")

	records, err := run(&o)
	if err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range records {
		buf.WriteString("  ")
		b, err := json.Marshal(r)
		if err != nil {
			log.Fatal(err)
		}
		buf.Write(b)
		if i < len(records)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("]\n")
	if o.out == "-" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(o.out, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", o.out)
}

// run builds a client, creates and seeds the attributes, drives the
// closed-loop workers for the duration, and renders the records.
func run(o *options) ([]map[string]any, error) {
	c, err := client.New(client.Options{
		Addrs:          o.addrs,
		Replication:    o.replication,
		Conns:          o.conns,
		RequestTimeout: o.timeout,
		MaxRetries:     o.retries,
		RetryBaseDelay: o.retryBase,
		RetryMaxDelay:  o.retryMax,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	if err := setup(c, o); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	results := make([]result, o.workers)
	start := time.Now()
	deadline := start.Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = worker(w, c, o, deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := merge(results)
	stats := c.Stats()
	log.Printf("%d reads, %d ingests, %.0f req/s, %d retries, %d failures, %d shed",
		len(merged.readNs), len(merged.ingestNs),
		float64(len(merged.readNs)+len(merged.ingestNs))/elapsed.Seconds(),
		stats.Retries, merged.failures, merged.shed)
	return report(o, merged, stats, elapsed), nil
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }
func attrName(i int) string   { return fmt.Sprintf("attr-%02d", i) }

// setup creates every attribute and pre-fills it so measured reads
// answer from real fits, not from cold uniform rungs. Attribute creation
// is idempotent, so back-to-back runs against one daemon share state.
func setup(c *client.Client, o *options) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(o.seed))
	cfg := client.AttrConfig{DomainLo: 0, DomainHi: 1, ReservoirSize: 2000, Seed: 7}
	for t := 0; t < o.tenants; t++ {
		for a := 0; a < o.attrs; a++ {
			tenant, attr := tenantName(t), attrName(a)
			if err := c.CreateAttr(ctx, tenant, attr, cfg, client.WithMaxRetries(5)); err != nil {
				return fmt.Errorf("create %s/%s: %w", tenant, attr, err)
			}
			for sent := 0; sent < o.seedValues; sent += 512 {
				n := o.seedValues - sent
				if n > 512 {
					n = 512
				}
				values := make([]float64, n)
				for i := range values {
					values[i] = rng.Float64()
				}
				if _, err := c.Ingest(ctx, tenant, attr, values, client.WithMaxRetries(5)); err != nil {
					return fmt.Errorf("seed ingest: %w", err)
				}
			}
			if _, err := c.Estimate(ctx, tenant, attr, 0, 1,
				client.WithFresh(), client.WithMaxRetries(5), client.WithTimeout(10*time.Second)); err != nil {
				return fmt.Errorf("priming fit: %w", err)
			}
		}
	}
	return nil
}

// worker is one closed-loop client: it fires requests back to back until
// the deadline, classifying each as read or ingest and recording the
// latency of every successful call (the client's bounded retries run
// inside it).
func worker(id int, c *client.Client, o *options, deadline time.Time) result {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(o.seed + int64(id)*7919))
	var res result
	ingestValues := make([]float64, o.ingestBatch)
	queries := make([]client.Range, o.batchSize)
	for time.Now().Before(deadline) {
		tenant := tenantName(rng.Intn(o.tenants))
		attr := attrName(rng.Intn(o.attrs))
		isRead := rng.Float64() < o.readFrac
		start := time.Now()
		var err error
		var ir client.IngestResult
		switch {
		case isRead && rng.Float64() < o.batchFrac:
			for i := range queries {
				lo := rng.Float64()
				queries[i] = client.Range{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
			}
			_, err = c.EstimateBatch(ctx, tenant, attr, queries)
		case isRead:
			lo := rng.Float64()
			hi := lo + rng.Float64()*(1-lo)
			if rng.Float64() < o.freshFrac {
				_, err = c.Estimate(ctx, tenant, attr, lo, hi, client.WithFresh())
			} else {
				_, err = c.Estimate(ctx, tenant, attr, lo, hi)
			}
		default:
			for i := range ingestValues {
				ingestValues[i] = rng.Float64()
			}
			ir, err = c.Ingest(ctx, tenant, attr, ingestValues)
		}
		if err != nil {
			res.failures++
			continue
		}
		ns := time.Since(start).Nanoseconds()
		if isRead {
			res.readNs = append(res.readNs, ns)
		} else {
			res.ingestNs = append(res.ingestNs, ns)
			res.shed += int64(ir.Shed)
			res.queued += int64(ir.Queued)
		}
	}
	return res
}

func merge(results []result) result {
	var out result
	for _, r := range results {
		out.readNs = append(out.readNs, r.readNs...)
		out.ingestNs = append(out.ingestNs, r.ingestNs...)
		out.failures += r.failures
		out.shed += r.shed
		out.queued += r.queued
	}
	return out
}

func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// report renders the merged tallies in the BENCH_*.json record shape.
func report(o *options, m result, stats client.Stats, elapsed time.Duration) []map[string]any {
	mk := func(name string, ns []int64) map[string]any {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		var sum int64
		for _, v := range ns {
			sum += v
		}
		rec := map[string]any{
			"name":        name,
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"host_cpus":   runtime.NumCPU(),
			"runs":        len(ns),
			"workers":     o.workers,
			"replicas":    len(o.addrs),
			"replication": o.replication,
		}
		if len(ns) > 0 {
			rec["ns_per_op"] = sum / int64(len(ns))
			rec["p50_ns"] = quantile(ns, 0.50)
			rec["p99_ns"] = quantile(ns, 0.99)
			rec["p999_ns"] = quantile(ns, 0.999)
		}
		return rec
	}
	total := len(m.readNs) + len(m.ingestNs)
	totals := map[string]any{
		"name":        "ServiceMixedTotals",
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"host_cpus":   runtime.NumCPU(),
		"runs":        total,
		"workers":     o.workers,
		"replicas":    len(o.addrs),
		"replication": o.replication,
		"duration_s":  elapsed.Seconds(),
		"rps":         float64(total) / elapsed.Seconds(),
		"read_frac":   o.readFrac,
		"retries":     stats.Retries,
		"failovers":   stats.Failovers,
		"failures":    m.failures,
		"queued":      m.queued,
		"shed":        m.shed,
	}
	return []map[string]any{
		mk("ServiceMixedRead", m.readNs),
		mk("ServiceMixedIngest", m.ingestNs),
		totals,
	}
}
