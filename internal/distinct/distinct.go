// Package distinct estimates the number of distinct values of an
// attribute from a random sample — the companion problem to selectivity
// estimation: System R's join-size formula (|R|·|S|/max(V(R),V(S)))
// consumes exactly this statistic, and the paper's domain-cardinality
// discussion (Fig. 5) turns on how many distinct values an attribute has.
//
// The estimator is GEE, the Guaranteed-Error Estimator of Charikar et
// al., taking a sample of size n from a relation of N records:
// √(N/n)·f1 + Σ_{i≥2} f_i, where f_i denotes the number of values
// appearing exactly i times in the sample.
package distinct

import (
	"fmt"
	"math"
)

// FrequencyProfile summarises a sample for distinct-value estimation.
type FrequencyProfile struct {
	// F maps occurrence count i to f_i, the number of distinct sample
	// values seen exactly i times.
	F map[int]int
	// D is the number of distinct values in the sample.
	D int
	// N is the sample size.
	N int
}

// Profile builds the frequency profile of a sample.
func Profile(sample []float64) (*FrequencyProfile, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("distinct: empty sample")
	}
	counts := make(map[float64]int, len(sample))
	for _, v := range sample {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("distinct: NaN sample value")
		}
		counts[v]++
	}
	p := &FrequencyProfile{F: make(map[int]int), D: len(counts), N: len(sample)}
	for _, c := range counts {
		p.F[c]++
	}
	return p, nil
}

// GEE returns the Guaranteed-Error Estimator for a sample of size N
// drawn from a relation of tableSize records:
//
//	√(tableSize/n)·f1 + Σ_{i≥2} f_i
//
// GEE's ratio error is within a factor √(tableSize/n) of optimal for
// every input (Charikar, Chaudhuri, Motwani & Narasayya, PODS 2000).
func (p *FrequencyProfile) GEE(tableSize int) (float64, error) {
	if tableSize < p.N {
		return 0, fmt.Errorf("distinct: table size %d below sample size %d", tableSize, p.N)
	}
	rest := 0
	for i, f := range p.F {
		if i >= 2 {
			rest += f
		}
	}
	est := math.Sqrt(float64(tableSize)/float64(p.N))*float64(p.F[1]) + float64(rest)
	// At least every distinct sample value exists; at most every record is
	// distinct.
	if est < float64(p.D) {
		est = float64(p.D)
	}
	if est > float64(tableSize) {
		est = float64(tableSize)
	}
	return est, nil
}
