package histogram

import (
	"fmt"
	"math"
	"sort"
)

// BuildVOptimal builds a v-optimal histogram with (up to) k bins: bin
// boundaries are chosen by dynamic programming to minimise the total
// within-bin variance of the sample values (the weighted variance
// objective of Jagadish et al., VLDB 1998 — reference [7] of the paper).
// It is included as an extension baseline beyond the paper's comparison.
//
// The DP runs on the distinct sorted values with their multiplicities and
// costs O(v²·k) for v distinct values; to keep construction tractable on
// large samples the values are first coalesced onto a grid of at most
// maxCells cells (a standard approximation). The sample is sorted
// ascending.
func BuildVOptimal(sorted []float64, k int, maxCells int) (*Histogram, error) {
	if k < 1 {
		return nil, fmt.Errorf("histogram: bin count must be >= 1, got %d", k)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("histogram: v-optimal needs samples")
	}
	if maxCells < k {
		maxCells = 4 * k
	}
	if sorted[0] == sorted[len(sorted)-1] {
		return nil, fmt.Errorf("histogram: all samples identical; no interval structure")
	}

	// Coalesce samples onto at most maxCells equi-width cells; each cell
	// carries a count. The DP then partitions cells into k bins.
	lo, hi := sorted[0], sorted[len(sorted)-1]
	cells := maxCells
	cellWidth := (hi - lo) / float64(cells)
	counts := make([]float64, cells)
	for _, x := range sorted {
		i := int((x - lo) / cellWidth)
		if i >= cells {
			i = cells - 1
		}
		counts[i]++
	}

	// Prefix sums for O(1) segment cost: cost(i,j) = Σ c² − (Σ c)²/(j−i)
	// over cells i..j−1 (variance×len of the cell counts, the classic
	// v-optimal frequency-variance objective).
	prefix := make([]float64, cells+1)
	prefixSq := make([]float64, cells+1)
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
		prefixSq[i+1] = prefixSq[i] + c*c
	}
	segCost := func(i, j int) float64 {
		n := float64(j - i)
		s := prefix[j] - prefix[i]
		sq := prefixSq[j] - prefixSq[i]
		return sq - s*s/n
	}

	if k > cells {
		k = cells
	}
	const inf = math.MaxFloat64
	// dp[b][j]: minimal cost of covering cells [0, j) with b bins.
	dp := make([][]float64, k+1)
	arg := make([][]int, k+1)
	for b := range dp {
		dp[b] = make([]float64, cells+1)
		arg[b] = make([]int, cells+1)
		for j := range dp[b] {
			dp[b][j] = inf
		}
	}
	dp[0][0] = 0
	for b := 1; b <= k; b++ {
		for j := b; j <= cells; j++ {
			for i := b - 1; i < j; i++ {
				if dp[b-1][i] == inf {
					continue
				}
				if c := dp[b-1][i] + segCost(i, j); c < dp[b][j] {
					dp[b][j] = c
					arg[b][j] = i
				}
			}
		}
	}

	// Recover boundaries.
	cuts := make([]int, 0, k+1)
	j := cells
	for b := k; b >= 1; b-- {
		cuts = append(cuts, j)
		j = arg[b][j]
	}
	cuts = append(cuts, 0)
	sort.Ints(cuts)

	bounds := make([]float64, 0, len(cuts))
	for _, c := range cuts {
		bounds = append(bounds, lo+float64(c)*cellWidth)
	}
	bounds[len(bounds)-1] = hi
	bounds = dedupe(bounds)
	if len(bounds) < 2 {
		return nil, fmt.Errorf("histogram: degenerate v-optimal boundaries")
	}
	h, err := newHistogram("v-optimal", bounds, sorted)
	if err != nil {
		return nil, err
	}
	return h, nil
}
