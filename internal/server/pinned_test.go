package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"selest/internal/online"
	"selest/internal/wire"
)

// genScale maps a generation into [0, 1) exactly, so an answer names the
// generation of the fit that produced it.
const genScale = 1 << 20

// genFit answers every query with the generation it was published as. It
// yields the processor on each answer, so refits land between the reads
// of one reply.
type genFit uint64

func (g genFit) Selectivity(a, b float64) float64 {
	runtime.Gosched()
	return float64(g) / genScale
}

func (g genFit) Name() string { return "generation" }

// TestOneSnapshotPerRequest pins DESIGN.md §15's freshness contract while
// refits publish as fast as they can: every reply to a single estimate or
// a batch, through the request core and the in-process entry points,
// reports exactly one generation and answers every query from that
// generation's fit.
func TestOneSnapshotPerRequest(t *testing.T) {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "gen", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "gen")
	if err != nil {
		t.Fatal(err)
	}
	// Refits run one at a time and every build succeeds, so the k-th
	// build is published as generation k.
	var builds atomic.Uint64
	est, err := online.New(func([]float64) (online.Fitted, error) {
		return genFit(builds.Add(1)), nil
	}, online.Config{ReservoirSize: 64, RefitEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.InsertBatch(seq(64)); err != nil {
		t.Fatal(err)
	}
	if err := est.Flush(); err != nil {
		t.Fatal(err)
	}
	a.est = est // before any reader starts

	stop := make(chan struct{})
	var refits sync.WaitGroup
	refits.Add(1)
	go func() {
		defer refits.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := est.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	check := func(path string, res ...EstimateResult) {
		t.Helper()
		gen := res[0].Generation
		for i, r := range res {
			if r.Generation != gen {
				t.Errorf("%s: reply mixes generations %d and %d", path, gen, r.Generation)
				return
			}
			if r.Selectivity*genScale != float64(gen) {
				t.Errorf("%s: answer %d came from generation %v, reply reports %d", path, i, r.Selectivity*genScale, gen)
				return
			}
		}
	}
	queries := make([]RangeQuery, 48)
	for i := range queries {
		queries[i] = RangeQuery{Lo: float64(i) / 64, Hi: float64(i+8) / 64}
	}
	ctx := context.Background()
	const rounds = 300
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() {
			res, err := s.Estimate(ctx, "acme", "gen", 0.25, 0.5, false)
			if err != nil {
				t.Error(err)
				return
			}
			check("Estimate", res)
		},
		func() {
			res, err := s.EstimateBatch(ctx, "acme", "gen", queries, false)
			if err != nil {
				t.Error(err)
				return
			}
			check("EstimateBatch", res...)
		},
		func() {
			c := call{op: wire.OpEstimate, tenant: []byte("acme"), attr: []byte("gen"), lo: 0.25, hi: 0.5}
			var r reply
			if err := s.serve(&c, &r); err != nil {
				t.Error(err)
				return
			}
			check("core estimate", r.res)
		},
		func() {
			c := call{op: wire.OpEstimateBatch, tenant: []byte("acme"), attr: []byte("gen"), queries: queries}
			var r reply
			if err := s.serve(&c, &r); err != nil {
				t.Error(err)
				return
			}
			check("core batch", r.results...)
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				read()
			}
		}()
	}
	readers.Wait()
	close(stop)
	refits.Wait()
	if n := builds.Load(); n < 2 {
		t.Fatalf("only %d fits published: no refit raced the readers", n)
	}
}
