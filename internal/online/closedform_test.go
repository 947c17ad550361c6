package online

import (
	"sync"
	"testing"

	"selest/internal/core"
	"selest/internal/xrand"
)

// hullBeta is the closed-form refit path: the beta-kernel fit under its
// closed-form rule, whose whole fit is the moment index over the sorted
// view plus O(1) arithmetic, with each refit's sample hull as the domain
// (the drift experiment's engine).
func hullBeta(sorted []float64) (Fitted, error) {
	return core.BuildSorted(sorted, core.Options{Method: core.BetaKernel, DomainLo: sorted[0], DomainHi: sorted[len(sorted)-1]})
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
		e, err := New(hullBeta, Config{
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
