// Package sample implements the sampling substrate: simple random sampling
// without replacement (how the paper draws its 2,000-record sample sets),
// reservoir sampling for the streaming extension, and the pure-sampling
// selectivity estimator that serves as the paper's baseline.
package sample

import (
	"fmt"
	"math"
	"sort"

	"selest/internal/xrand"
)

// WithoutReplacement draws n records from values uniformly without
// replacement, matching the paper's sample-set construction ("selecting the
// records from the file in a random fashion without replacement"). The
// input is not modified. n greater than len(values) is an error.
func WithoutReplacement(r *xrand.RNG, values []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("sample: negative sample size %d", n)
	}
	if n > len(values) {
		return nil, fmt.Errorf("sample: sample size %d exceeds population %d", n, len(values))
	}
	// Partial Fisher–Yates over an index permutation: O(len) space,
	// O(n) swaps, and every subset is equally likely.
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(values)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = values[idx[i]]
	}
	return out, nil
}

// PureEstimator estimates range selectivity as the fraction of samples
// falling inside the range. This is the paper's baseline: consistent, but
// converging only at rate O(n^{−1/2}).
type PureEstimator struct {
	sorted []float64
}

// NewPureEstimator builds the estimator over a sample sorted ascending,
// which it aliases: the caller must not modify it afterwards.
func NewPureEstimator(sorted []float64) *PureEstimator {
	return &PureEstimator{sorted: sorted}
}

// Selectivity returns the estimated selectivity σ̂(a,b) ∈ [0,1].
func (p *PureEstimator) Selectivity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a || len(p.sorted) == 0 {
		return 0
	}
	lo := sort.SearchFloat64s(p.sorted, a)
	hi := sort.Search(len(p.sorted), func(i int) bool { return p.sorted[i] > b })
	return float64(hi-lo) / float64(len(p.sorted))
}

// SampleSize returns the number of samples backing the estimator.
func (p *PureEstimator) SampleSize() int { return len(p.sorted) }

// Name identifies the estimator in experiment output.
func (p *PureEstimator) Name() string { return "sampling" }
