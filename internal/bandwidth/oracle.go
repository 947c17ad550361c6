package bandwidth

import (
	"fmt"
	"math"

	"selest/internal/parallel"
)

// OracleWorkers performs the grid search behind the paper's "h-opt"
// reference columns (figures 9 and 11): it scans smoothing parameters on
// a logarithmic grid and returns the one minimising a caller-supplied
// loss — in the experiments, the mean relative error over a query
// workload with known true selectivities. The paper stresses this is "not
// a practical method" (it needs the answers in advance); it exists to
// judge how close the practical rules get.
//
// Grid points are evaluated concurrently across workers goroutines (≤0
// means GOMAXPROCS; 1 recovers the fully sequential seed behaviour), so
// with more than one worker loss must be safe for concurrent invocation
// (the experiment losses are pure functions of h). The selected parameter
// is bit-identical to the seed's sequential xmath.LogGridMin scan: same
// grid points, same strict-less first-wins tie-breaking.
func OracleWorkers(loss func(h float64) float64, hLo, hHi float64, gridN, workers int) (float64, error) {
	if !(hLo > 0 && hHi > hLo) {
		return 0, fmt.Errorf("bandwidth: oracle needs 0 < hLo < hHi, got [%v, %v]", hLo, hHi)
	}
	if gridN < 2 {
		gridN = 48
	}
	hs := logGrid(hLo, hHi, gridN)
	losses := make([]float64, gridN)
	_ = parallel.ForEach(gridN, workers, func(i int) error {
		losses[i] = loss(hs[i])
		return nil
	})
	h, lossAt := hs[0], losses[0]
	for i := 1; i < gridN; i++ {
		if losses[i] < lossAt {
			h, lossAt = hs[i], losses[i]
		}
	}
	if math.IsNaN(lossAt) || math.IsInf(lossAt, 0) {
		return 0, fmt.Errorf("bandwidth: oracle loss not finite at minimum h=%v", h)
	}
	return h, nil
}

// OracleBinsWorkers scans integer bin counts in [kLo, kHi] and returns
// the count minimising the loss. Used for the histogram h-opt columns,
// where the smoothing parameter is discrete. Like OracleWorkers,
// candidate counts are evaluated across workers goroutines (loss must
// tolerate that) and the selection matches the seed's ascending
// sequential scan exactly.
func OracleBinsWorkers(loss func(k int) float64, kLo, kHi, workers int) (int, error) {
	if kLo < 1 || kHi < kLo {
		return 0, fmt.Errorf("bandwidth: oracle bins needs 1 <= kLo <= kHi, got [%d, %d]", kLo, kHi)
	}
	// Candidate counts scan multiplicatively (×1.25 steps) — error curves
	// over bin counts are smooth on a log scale and the full integer scan
	// is wasteful for kHi in the thousands.
	var ks []int
	for k := kLo; k <= kHi; {
		ks = append(ks, k)
		next := k + k/4
		if next <= k {
			next = k + 1
		}
		k = next
	}
	losses := make([]float64, len(ks))
	_ = parallel.ForEach(len(ks), workers, func(i int) error {
		losses[i] = loss(ks[i])
		return nil
	})
	best, bestLoss := kLo, math.Inf(1)
	for i, k := range ks {
		if losses[i] < bestLoss {
			best, bestLoss = k, losses[i]
		}
	}
	if math.IsInf(bestLoss, 1) {
		return 0, fmt.Errorf("bandwidth: oracle bins found no finite loss")
	}
	return best, nil
}
