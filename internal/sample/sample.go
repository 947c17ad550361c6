// Package sample implements the sampling substrate: simple random sampling
// without replacement (how the paper draws its 2,000-record sample sets),
// reservoir sampling for the streaming extension, and the pure-sampling
// selectivity estimator that serves as the paper's baseline.
package sample

import (
	"fmt"
	"math"
	"sort"

	"selest/internal/fsort"
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

// Reservoir maintains a uniform sample of fixed capacity over a stream of
// unknown length (Vitter's algorithm R). It supports the online-estimation
// extension: estimators are re-fit from the reservoir as records stream in.
type Reservoir struct {
	rng      *xrand.RNG
	capacity int
	seen     int
	items    []float64

	// The replacement log: the values Add admitted and the residents they
	// evicted since the last sorted view (ShardedReservoir.Sorted), so the
	// next view can merge them into the previous one instead of sorting
	// every item again. It is off until the first view, and it stops
	// once it passes capacity/mergeDivisor admissions, until the next
	// view restarts it, so it never holds more than twice that in values.
	logging  bool
	admitted []float64
	evicted  []float64
}

// NewReservoir returns a reservoir holding at most capacity items.
// It panics on capacity <= 0.
func NewReservoir(r *xrand.RNG, capacity int) *Reservoir {
	if capacity <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	return &Reservoir{rng: r, capacity: capacity, items: make([]float64, 0, capacity)}
}

// Add offers one stream element to the reservoir. It reports whether
// the element was kept — appended while filling, or admitted by
// evicting a resident element once full — so callers can track
// reservoir churn without re-reading the contents.
func (rv *Reservoir) Add(x float64) bool {
	rv.seen++
	if len(rv.items) < rv.capacity {
		if rv.logging {
			rv.logAdmission(x)
		}
		rv.items = append(rv.items, x)
		return true
	}
	if j := rv.rng.Intn(rv.seen); j < rv.capacity {
		if rv.logging && rv.logAdmission(x) {
			rv.evicted = append(rv.evicted, rv.items[j])
		}
		rv.items[j] = x
		return true
	}
	return false
}

// mergeDivisor bounds the replacement log and the merge path: a log
// stops at capacity/mergeDivisor admissions, and Sorted merges only when
// the admissions are at most 1/mergeDivisor of the contents. Beyond that
// sorting the delta and merging it costs about what a full sort does.
const mergeDivisor = 8

// logAdmission records an admitted value, or stops the log when it
// already holds capacity/mergeDivisor admissions, and reports whether
// the log is still running.
func (rv *Reservoir) logAdmission(x float64) bool {
	if len(rv.admitted) >= rv.capacity/mergeDivisor {
		rv.logging = false
		return false
	}
	rv.admitted = append(rv.admitted, x)
	return true
}

// restartLog empties the replacement log and turns it on: the contents
// as they stand are the base the log records changes against.
func (rv *Reservoir) restartLog() {
	rv.logging = true
	rv.admitted, rv.evicted = rv.admitted[:0], rv.evicted[:0]
}

// Snapshot returns a copy of the current reservoir contents. The copy is
// independent of the reservoir: later Adds never show through it, so
// callers (drift checks, persistence) can read it while the reservoir
// keeps absorbing the stream.
func (rv *Reservoir) Snapshot() []float64 {
	return append([]float64(nil), rv.items...)
}

// AppendTo appends the current reservoir contents to dst and returns the
// extended slice — Snapshot without the forced allocation, for callers
// merging several reservoirs into one buffer.
func (rv *Reservoir) AppendTo(dst []float64) []float64 {
	return append(dst, rv.items...)
}

// Clone returns a deep copy of the reservoir — contents, seen count, and
// RNG state — so the copy evolves exactly as the original would from this
// point, without sharing any mutable state.
func (rv *Reservoir) Clone() *Reservoir {
	rng := *rv.rng
	return &Reservoir{
		rng:      &rng,
		capacity: rv.capacity,
		seen:     rv.seen,
		items:    append(make([]float64, 0, rv.capacity), rv.items...),
	}
}

// Seen returns how many elements have been offered.
func (rv *Reservoir) Seen() int { return rv.seen }

// Reset drops the reservoir contents and the seen count, so subsequent
// Adds rebuild a uniform sample of the post-reset stream only.
func (rv *Reservoir) Reset() {
	rv.seen = 0
	rv.items = rv.items[:0]
	rv.logging = false
}

// Len returns how many elements the reservoir currently holds.
func (rv *Reservoir) Len() int { return len(rv.items) }

// PureEstimator estimates range selectivity as the fraction of samples
// falling inside the range. This is the paper's baseline: consistent, but
// converging only at rate O(n^{−1/2}).
type PureEstimator struct {
	sorted []float64
}

// NewPureEstimator builds the estimator from a sample set (copied, sorted).
func NewPureEstimator(samples []float64) *PureEstimator {
	s := append([]float64(nil), samples...)
	fsort.Float64s(s)
	return &PureEstimator{sorted: s}
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
