package histogram

import (
	"fmt"
	"sort"
)

// EndBiased is an end-biased histogram (in the spirit of Ioannidis &
// Christodoulakis, the paper's reference [2]): the k most frequent values
// are stored exactly as singleton buckets and the remaining mass falls
// into one equi-width "rest" histogram. On heavy-duplicate attributes
// (the paper's iw/ci file) the frequent values carry most of the answer
// and the singletons remove their error entirely.
type EndBiased struct {
	// singles are the singleton buckets in ascending value order, the
	// order Selectivity sums them in, so every fit over the same samples
	// answers bit-identically.
	singles []singleton
	rest    *Histogram // nil when every sample is a singleton
	restPor float64    // mass fraction of the rest histogram
	n       int
}

// singleton is one exactly-stored frequent value and its mass fraction.
type singleton struct{ v, mass float64 }

// BuildEndBiased builds an end-biased histogram with k singleton buckets
// and restBins equi-width bins for the remainder over [lo, hi] from a
// sample sorted ascending; the remainder keeps that order.
func BuildEndBiased(sorted []float64, k, restBins int, lo, hi float64) (*EndBiased, error) {
	if k < 1 {
		return nil, fmt.Errorf("histogram: singleton count must be >= 1, got %d", k)
	}
	if restBins < 1 {
		return nil, fmt.Errorf("histogram: rest bin count must be >= 1, got %d", restBins)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("histogram: end-biased needs samples")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("histogram: domain [%v, %v] is empty", lo, hi)
	}

	// Each run of equal values is one candidate, in ascending value
	// order, which the stable sort keeps among equal counts: ties go to
	// the smaller value.
	type vc struct {
		v float64
		c int
	}
	var byCount []vc
	for i, j := 0, 0; i < len(sorted); i = j {
		for j = i + 1; j < len(sorted) && sorted[j] == sorted[i]; j++ {
		}
		byCount = append(byCount, vc{sorted[i], j - i})
	}
	sort.SliceStable(byCount, func(i, j int) bool { return byCount[i].c > byCount[j].c })
	if k > len(byCount) {
		k = len(byCount)
	}

	top := byCount[:k]
	sort.Slice(top, func(i, j int) bool { return top[i].v < top[j].v })
	e := &EndBiased{singles: make([]singleton, k), n: len(sorted)}
	isSingle := make(map[float64]bool, k)
	for i, t := range top {
		e.singles[i] = singleton{t.v, float64(t.c) / float64(len(sorted))}
		isSingle[t.v] = true
	}
	var rest []float64
	for _, v := range sorted {
		if !isSingle[v] {
			rest = append(rest, v)
		}
	}
	e.restPor = float64(len(rest)) / float64(len(sorted))
	if len(rest) > 0 {
		h, err := BuildEquiWidth(rest, restBins, lo, hi)
		if err != nil {
			return nil, err
		}
		e.rest = h
	}
	return e, nil
}

// Selectivity returns σ̂(a,b): exact singleton masses plus the rest
// histogram's (scaled) estimate.
func (e *EndBiased) Selectivity(a, b float64) float64 {
	if b < a {
		return 0
	}
	sum := 0.0
	for _, s := range e.singles {
		if s.v >= a && s.v <= b {
			sum += s.mass
		}
	}
	if e.rest != nil {
		sum += e.restPor * e.rest.Selectivity(a, b)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// SampleSize returns the number of samples.
func (e *EndBiased) SampleSize() int { return e.n }

// Name identifies the estimator in experiment output.
func (e *EndBiased) Name() string { return "end-biased" }
