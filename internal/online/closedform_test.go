package online

import (
	"math"
	"sync"
	"testing"

	"selest/internal/fsort"
	"selest/internal/kde"
	"selest/internal/xrand"
)

// TestClosedFormBuilderFits pins the builder's contract: a fit over the
// sorted sample it is handed, which it leaves as it was, correct
// selectivities, and hull-domain defaulting.
func TestClosedFormBuilderFits(t *testing.T) {
	r := xrand.New(17)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = r.Float64() * 1000
	}
	fsort.Float64s(xs)
	orig := append([]float64(nil), xs...)
	fit, err := ClosedFormBuilder(0, 0)(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("builder modified its sample at %d", i)
		}
	}
	if _, ok := fit.(*kde.BetaEstimator); !ok {
		t.Fatalf("builder fitted %T, want *kde.BetaEstimator", fit)
	}
	if s := fit.Selectivity(0, 500); math.Abs(s-0.5) > 0.05 {
		t.Fatalf("Selectivity(0, 500) = %v, want ≈0.5", s)
	}
	// A fixed domain is honoured too: the upper half holds no data, so
	// only the one-bandwidth kernel spill past the hull lands there.
	fit, err = ClosedFormBuilder(0, 2000)(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s := fit.Selectivity(1000, 2000); s > 0.05 {
		t.Fatalf("empty upper half has selectivity %v", s)
	}
	if s := fit.Selectivity(1200, 2000); s != 0 {
		t.Fatalf("region beyond kernel reach has selectivity %v", s)
	}
}

// TestClosedFormShardDeterminism pins the closed-form refit as a pure
// function of the reservoir multiset: with the stream length equal to
// the reservoir capacity the reservoir never evicts, so every concurrent
// insert interleaving retains the same records, in whatever order the
// writers took the reservoir's lock — and the builder (handed the sorted
// view) must answer bit-identically on every repeated run.
// Run under -race this also exercises the ingest/refit paths for data
// races (the race-refit make target).
func TestClosedFormShardDeterminism(t *testing.T) {
	const K = 4096
	r := xrand.New(31)
	stream := make([]float64, K)
	for i := range stream {
		stream[i] = r.Float64() * 1e6
	}
	queries := [][2]float64{{0, 1e5}, {1e5, 9e5}, {4.2e5, 4.7e5}, {9.99e5, 1e6}, {0, 1e6}}

	var want []float64
	for run := 0; run < 3; run++ {
		e, err := New(ClosedFormBuilder(0, 0), Config{
			ReservoirSize: K, RefitEvery: -1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(part []float64) {
				defer wg.Done()
				for _, x := range part {
					e.Insert(x)
				}
			}(stream[w*K/workers : (w+1)*K/workers])
		}
		wg.Wait()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(queries))
		for i, q := range queries {
			got[i] = e.Selectivity(q[0], q[1])
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d query %v: %v != %v (bit-identity broken)", run, queries[i], got[i], want[i])
			}
		}
	}
}
