package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"selest/client"
	"selest/internal/dataset"
	"selest/internal/kde"
	"selest/internal/query"
	"selest/internal/xrand"
)

// Request kinds the generator sends.
const (
	opRead   uint8 = iota // one snapshot estimate
	opFresh               // one estimate sent WithFresh (forces a refit)
	opBatch               // batchSize estimates on one attribute
	opIngest              // ingestSize stream values
)

var opNames = [...]string{"read", "fresh", "batch", "ingest"}

const (
	batchSize = 16
	// seedChunk is the ingest payload size while seeding attributes.
	seedChunk = 1024
)

// attrSpec is one served attribute: its configuration, the stream its
// values come from, and the query pool the schedule draws from.
type attrSpec struct {
	tenant, name string
	cfg          client.AttrConfig
	// base is the attribute's stream, cycled: value j of the stream is
	// base[j % len(base)].
	base []float64
	// seedN values are ingested during set-up, before any measured traffic.
	seedN int
	// pool holds the attribute's queries, with its first batchSize-1
	// entries repeated at the end so any batchSize window is contiguous.
	pool []client.Range
}

// streamValues returns stream values [off, off+n), aliasing base when the
// window does not wrap.
func (a *attrSpec) streamValues(off, n int) []float64 {
	L := len(a.base)
	s := off % L
	if s+n <= L {
		return a.base[s : s+n]
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a.base[(off+i)%L]
	}
	return out
}

// workload is one traffic mix over a set of attributes.
type workload struct {
	name  string
	attrs []attrSpec
	// perTenant attributes per tenant; attribute index = tenant*perTenant + k.
	perTenant int
	// tenantCDF is the cumulative tenant popularity.
	tenantCDF []float64

	readFrac   float64 // share of requests that are estimates
	batchFrac  float64 // share of estimates sent as batches
	ingestSize int     // values per ingest request
	// freshEvery: every freshEvery-th single estimate is sent WithFresh (0:
	// none). A fixed spacing, not a random share, keeps the number of the
	// refits they force, which set the daemon's cost, the same in every run.
	freshEvery int

	// nominal is the fixed open-loop rate the latency metrics are measured
	// at; ladder are the fixed rates goodput is searched over, ascending.
	// Each ladder tops out about a quarter below the lowest capacity ten
	// runs found on a shared 2-vCPU virtual machine, whose load moved that
	// capacity by ±25%: goodput then shows a regression below the top
	// within its bound, but not a gain above it.
	nominal float64
	ladder  []float64
	// snapshotOnly demands every answer come from the snapshot rung.
	snapshotOnly bool
	// poolPerSize queries per standard size make each attribute's query
	// pool.
	poolPerSize int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-read", "ingest-refit", "mixed"}

// geometricLadder returns n rates from lo growing by factor each step.
func geometricLadder(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(lo * math.Pow(factor, float64(i)))
	}
	return out
}

// buildWorkload generates a workload's attributes, streams and query
// pools from seed. The same seed always gives the same inputs.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := xrand.New(uint64(seed)*0x9E3779B97F4A7C15 + 1)
	switch name {
	case "serve-read":
		w := &workload{
			name: name, perTenant: 4,
			readFrac: 1, batchFrac: 0.2,
			nominal: 5000, ladder: geometricLadder(4000, 1.15, 15),
			snapshotOnly: true, poolPerSize: 32,
		}
		files, err := tableFiles()
		if err != nil {
			return nil, err
		}
		w.tenantCDF = zipfCDF(64, 1.1)
		for t := 0; t < 64; t++ {
			for k := 0; k < w.perTenant; k++ {
				f := files[(t*w.perTenant+k)%len(files)]
				a := windowAttr(f, fmt.Sprintf("t%02d", t), fmt.Sprintf("a%d", k), 4000, rng)
				a.cfg.Seed = uint64(t*w.perTenant+k) + 1
				w.attrs = append(w.attrs, a)
			}
		}
		return w, w.makePools(rng)
	case "mixed":
		w := &workload{
			name: name, perTenant: 2,
			readFrac: 0.8, batchFrac: 0.2, freshEvery: 100, ingestSize: 64,
			nominal: 2500, ladder: geometricLadder(2000, 1.15, 20),
			poolPerSize: 32,
		}
		files, err := tableFiles()
		if err != nil {
			return nil, err
		}
		w.tenantCDF = zipfCDF(256, 0)
		for t := 0; t < 256; t++ {
			for k := 0; k < w.perTenant; k++ {
				f := files[(t*w.perTenant+k)%len(files)]
				a := windowAttr(f, fmt.Sprintf("t%03d", t), fmt.Sprintf("a%d", k), 8192, rng)
				a.seedN = 1024
				a.cfg.ReservoirSize = 512
				a.cfg.Seed = uint64(t*w.perTenant+k) + 1
				w.attrs = append(w.attrs, a)
			}
		}
		return w, w.makePools(rng)
	case "ingest-refit":
		w := &workload{
			name: name, perTenant: 8,
			readFrac: 0.8, batchFrac: 0.2, freshEvery: 250, ingestSize: 1024,
			nominal: 2500, ladder: geometricLadder(500, 1.15, 19),
			tenantCDF: []float64{1},
			// Few attributes: a pool of as many distinct queries as the run
			// serves single estimates keeps the few tail queries with a
			// large relative error from setting the MRE.
			poolPerSize: 2048,
		}
		const reservoir = 1 << 18
		methods := []struct {
			method, rule string
			boundary     int
		}{
			{"kernel", "dpi", int(kde.BoundaryKernels)},
			{"kernel", "normal-scale", int(kde.BoundaryKernels)},
			{"beta-kernel", "beta-closed-form", 0},
			{"equi-depth", "", 0},
		}
		gens := []func(p, n int, seed uint64) *dataset.File{dataset.NormalFile, dataset.ExponentialFile, dataset.UniformFile}
		for k := 0; k < w.perTenant; k++ {
			m := methods[k%len(methods)]
			// Fixed streams, like the Table 2 files: the run seed picks the
			// queries and the traffic.
			f := gens[k%len(gens)](20-5*(k/4), 2*reservoir, uint64(k)*7919+1)
			lo, hi := f.Domain()
			w.attrs = append(w.attrs, attrSpec{
				tenant: "t0", name: fmt.Sprintf("a%d", k),
				cfg: client.AttrConfig{
					DomainLo: lo, DomainHi: hi, Method: m.method, Rule: m.rule, Boundary: m.boundary,
					ReservoirSize: reservoir, RefitEvery: reservoir, Seed: uint64(k) + 1,
				},
				base: f.Records, seedN: reservoir,
			})
		}
		return w, w.makePools(rng)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// tableFiles generates every Table 2 data file. They come from one fixed
// seed, so that accuracy compares estimators on the same files; the run
// seed picks each attribute's window into them, the queries and the
// traffic.
func tableFiles() ([]*dataset.File, error) {
	var out []*dataset.File
	for _, n := range dataset.Names() {
		f, err := dataset.ByName(n, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// windowAttr makes an attribute whose stream is n consecutive records of
// f from a random offset; the whole window is ingested during set-up.
func windowAttr(f *dataset.File, tenant, name string, n int, rng *xrand.RNG) attrSpec {
	off := rng.Intn(f.Len())
	base := make([]float64, n)
	for i := range base {
		base[i] = f.Records[(off+i)%f.Len()]
	}
	lo, hi := f.Domain()
	return attrSpec{
		tenant: tenant, name: name,
		cfg:  client.AttrConfig{DomainLo: lo, DomainHi: hi},
		base: base, seedN: n,
	}
}

// makePools fills every attribute's query pool with query.Generate at the
// paper's standard sizes, positioned on the attribute's set-up values.
func (w *workload) makePools(rng *xrand.RNG) error {
	for i := range w.attrs {
		a := &w.attrs[i]
		records := a.streamValues(0, min(a.seedN, 8192))
		var pool []client.Range
		for _, size := range query.StandardSizes {
			qw, err := query.Generate(records, a.cfg.DomainLo, a.cfg.DomainHi, size, w.poolPerSize, rng)
			if err != nil {
				return fmt.Errorf("%s/%s queries: %w", a.tenant, a.name, err)
			}
			for _, q := range qw.Queries {
				pool = append(pool, client.Range{Lo: q.A, Hi: q.B})
			}
		}
		// Interleave sizes so a batch mixes them.
		perm := rng.Perm(len(pool))
		shuffled := make([]client.Range, len(pool), len(pool)+batchSize-1)
		for j, p := range perm {
			shuffled[j] = pool[p]
		}
		a.pool = append(shuffled, shuffled[:batchSize-1]...)
	}
	return nil
}

// poolLen is the number of distinct queries in an attribute's pool.
func (a *attrSpec) poolLen() int { return len(a.pool) - (batchSize - 1) }

// zipfCDF is the cumulative popularity of n ranks with weight 1/rank^s
// (s = 0 is uniform).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// req is one scheduled request.
type req struct {
	due  time.Duration // offset from the phase start
	op   uint8
	attr int32
	// arg is the query index for estimates and the stream offset for
	// ingests.
	arg int64
}

// schedule is one open-loop phase's pre-generated requests: Poisson
// arrivals at rate, the workload's op mix, tenants by popularity.
// cursor holds each attribute's next stream offset and is advanced by
// the ingests scheduled.
func (w *workload) schedule(rate float64, d time.Duration, rng *xrand.RNG, cursor []int64) []req {
	n := int(rate * d.Seconds() * 1.1)
	out := make([]req, 0, n)
	singles := 0
	t := 0.0
	for {
		t += rng.Exponential(rate)
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		ti := sort.SearchFloat64s(w.tenantCDF, rng.Float64())
		if ti >= len(w.tenantCDF) {
			ti = len(w.tenantCDF) - 1
		}
		ai := ti*w.perTenant + rng.Intn(w.perTenant)
		a := &w.attrs[ai]
		r := req{due: due, attr: int32(ai)}
		switch {
		case rng.Float64() >= w.readFrac:
			r.op = opIngest
			r.arg = cursor[ai]
			cursor[ai] += int64(w.ingestSize)
		case rng.Float64() < w.batchFrac:
			r.op = opBatch
			r.arg = int64(rng.Intn(a.poolLen()))
		default:
			r.op = opRead
			if singles++; w.freshEvery > 0 && singles%w.freshEvery == 0 {
				r.op = opFresh
			}
			r.arg = int64(rng.Intn(a.poolLen()))
		}
		out = append(out, r)
	}
}
