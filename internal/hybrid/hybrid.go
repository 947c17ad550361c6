// Package hybrid implements the paper's new estimator (§3.3): a hybrid of
// histogram and kernel estimation. Change points of the density — located
// at the maxima of the estimated second derivative — partition the domain
// into histogram bins; inside each bin an independent kernel estimator runs
// with its own, locally chosen bandwidth and boundary-kernel repair at the
// bin edges. Bins holding too few samples are merged with a neighbour.
//
// The motivation: kernel estimators assume a smooth density and incur high
// error where the true density jumps (spatial data is full of such change
// points), while histograms handle jumps at bin boundaries for free. The
// hybrid spends its bin boundaries exactly where the smoothness assumption
// breaks, and lets the kernel machinery do the work everywhere else.
package hybrid

import (
	"fmt"
	"math"
	"sort"

	"selest/internal/bandwidth"
	"selest/internal/errs"
	"selest/internal/faultinject"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/parallel"
	"selest/internal/xmath"
)

// Config parameterises the hybrid estimator.
type Config struct {
	// MaxChangePoints bounds the number of detected change points (and so
	// the number of bins, MaxChangePoints+1). Zero defaults to 7.
	MaxChangePoints int
	// MinBinFraction is the minimum fraction of samples a bin must hold;
	// smaller bins are merged with a neighbour. Zero defaults to 0.02.
	// Must be below 1 (a bin cannot be required to hold more than the
	// whole sample).
	MinBinFraction float64
	// GridSize is the resolution of the second-derivative scan.
	// Zero defaults to 512; positive values below 8 are clamped to 8 (a
	// shorter grid cannot carry a second-difference table).
	GridSize int
	// Workers bounds the concurrency of the per-bin estimator fits (≤0
	// means GOMAXPROCS). The assembled estimator is identical at every
	// worker count: each bin is fitted into its own pre-assigned slot
	// from its own disjoint sample segment.
	Workers int
}

// Validate rejects configurations no estimator could be built around.
// The seed's defaulting only replaced zero values, so negative settings
// passed straight through: a negative GridSize panicked inside the
// change-point scan, a negative MinBinFraction disabled bin merging, and
// a negative MaxChangePoints corrupted the separation threshold. Every
// failure wraps errs.ErrBadOption.
func (c Config) Validate() error {
	if c.MaxChangePoints < 0 {
		return fmt.Errorf("hybrid: MaxChangePoints %d is negative: %w", c.MaxChangePoints, errs.ErrBadOption)
	}
	if c.MinBinFraction < 0 || math.IsNaN(c.MinBinFraction) {
		return fmt.Errorf("hybrid: MinBinFraction %v is not a non-negative fraction: %w", c.MinBinFraction, errs.ErrBadOption)
	}
	if c.MinBinFraction >= 1 {
		return fmt.Errorf("hybrid: MinBinFraction %v would require a bin to hold the whole sample: %w", c.MinBinFraction, errs.ErrBadOption)
	}
	if c.GridSize < 0 {
		return fmt.Errorf("hybrid: GridSize %d is negative: %w", c.GridSize, errs.ErrBadOption)
	}
	return nil
}

// normalize validates and then applies the documented defaults in place.
func (c *Config) normalize() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.MaxChangePoints == 0 {
		c.MaxChangePoints = 7
	}
	if c.MinBinFraction == 0 {
		c.MinBinFraction = 0.02
	}
	if c.GridSize == 0 {
		c.GridSize = 512
	}
	if c.GridSize < 8 {
		c.GridSize = 8
	}
	return nil
}

// bin is one partition cell with its local kernel estimator.
type bin struct {
	lo, hi float64
	weight float64 // fraction of samples in the bin
	// est is the local kernel estimator; nil means the bin degenerated
	// (too few or constant samples) and falls back to uniform spread.
	est *kde.Estimator
	// mass is est's unclamped estimate of the whole bin, used to condition
	// the within-bin estimate on the bin (boundary kernels are consistent
	// but not a density, so this is slightly off one).
	mass float64
}

// Estimator is the hybrid histogram/kernel selectivity estimator. It is
// immutable after construction and safe for concurrent use.
type Estimator struct {
	bins   []bin
	lo, hi float64
	points []float64 // accepted change points, for diagnostics
}

// New builds a hybrid estimator over the domain [lo, hi] from a sample
// sorted ascending, which it reads in place and never modifies; unsorted
// input is an error wrapping errs.ErrBadOption.
func New(sorted []float64, lo, hi float64, cfg Config) (*Estimator, error) {
	if err := faultinject.Check("hybrid.build"); err != nil {
		return nil, err
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("hybrid: empty sample set")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("hybrid: domain [%v, %v] is empty", lo, hi)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	if sorted[0] < lo || sorted[len(sorted)-1] > hi {
		return nil, fmt.Errorf("hybrid: samples fall outside the domain [%v, %v]", lo, hi)
	}
	// The fit context aliases the sorted sample (rejecting unsorted
	// input) and carries its prefix-moment index through the change-point
	// pilot; every bin's local estimator then gets its own zero-copy
	// context over a disjoint sub-slice of the same array.
	ctx, err := kde.NewFitContextSorted(sorted)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}

	points, err := changePoints(ctx, lo, hi, cfg)
	if err != nil {
		return nil, err
	}

	bounds := append(append([]float64{lo}, points...), hi)
	counts := binCounts(sorted, bounds)
	bounds, counts = mergeSmallBins(bounds, counts, int(cfg.MinBinFraction*float64(len(sorted))))

	e := &Estimator{lo: lo, hi: hi, points: bounds[1 : len(bounds)-1]}
	n := float64(len(sorted))
	// Segment offsets first, so the per-bin fits are independent: bin i
	// owns sorted[starts[i] : starts[i]+counts[i]] and slot bins[i].
	starts := make([]int, len(counts))
	for i, sum := 0, 0; i < len(counts); i++ {
		starts[i] = sum
		sum += counts[i]
	}
	e.bins = make([]bin, len(counts))
	_ = parallel.ForEach(len(counts), cfg.Workers, func(i int) error {
		count := counts[i]
		blo, bhi := bounds[i], bounds[i+1]
		b := bin{lo: blo, hi: bhi, weight: float64(count) / n}
		if count > 0 {
			b.est = localEstimator(sorted[starts[i]:starts[i]+count], blo, bhi)
			if b.est != nil {
				b.mass = b.est.SelectivityUnclamped(blo, bhi)
				if b.mass <= 0 {
					b.est = nil // pathological local estimate: uniform fallback
				}
			}
		}
		e.bins[i] = b
		return nil
	})
	return e, nil
}

// changePoints locates up to MaxChangePoints maxima of |f̂”| on a grid,
// scanning greedily in decreasing magnitude with a minimum separation so
// one sharp feature does not absorb the entire budget (this realises the
// paper's "further change points are computed recursively").
func changePoints(ctx *kde.FitContext, lo, hi float64, cfg Config) ([]float64, error) {
	if err := faultinject.Check("hybrid.changepoints"); err != nil {
		return nil, fmt.Errorf("hybrid: change-point detection: %w", err)
	}
	h, err := bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{})
	if err != nil {
		// Degenerate sample (e.g. all duplicates): no smooth structure to
		// split on; a single bin is the correct outcome.
		return nil, nil
	}
	pilot, err := ctx.NewEstimator(kde.Config{
		Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi,
	})
	if err != nil {
		return nil, fmt.Errorf("hybrid: pilot estimate: %w", err)
	}
	xs := xmath.Linspace(lo, hi, cfg.GridSize)
	dx := xs[1] - xs[0]
	ys := pilot.DensityGrid(lo, hi, cfg.GridSize)
	d2 := xmath.SecondDerivativeTable(ys, dx)

	type cand struct {
		x, mag float64
	}
	cands := make([]cand, 0, len(xs))
	// Local maxima of |f''| only; a monotone derivative slope should not
	// spend change points.
	for i := 1; i < len(d2)-1; i++ {
		m := math.Abs(d2[i])
		if m >= math.Abs(d2[i-1]) && m >= math.Abs(d2[i+1]) && m > 0 {
			cands = append(cands, cand{x: xs[i], mag: m})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mag > cands[j].mag })

	minSep := (hi - lo) / float64(4*(cfg.MaxChangePoints+1))
	var accepted []float64
	for _, c := range cands {
		if len(accepted) >= cfg.MaxChangePoints {
			break
		}
		if c.x-lo < minSep || hi-c.x < minSep {
			continue
		}
		ok := true
		for _, a := range accepted {
			if math.Abs(a-c.x) < minSep {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, c.x)
		}
	}
	sort.Float64s(accepted)
	return accepted, nil
}

// binCounts counts sorted samples per (bounds[i], bounds[i+1]] cell (first
// cell closed on the left).
func binCounts(sorted []float64, bounds []float64) []int {
	counts := make([]int, len(bounds)-1)
	for i := range counts {
		lo := sort.Search(len(sorted), func(j int) bool { return sorted[j] > bounds[i] })
		if i == 0 {
			lo = 0
		}
		hi := sort.Search(len(sorted), func(j int) bool { return sorted[j] > bounds[i+1] })
		counts[i] = hi - lo
	}
	return counts
}

// mergeSmallBins repeatedly merges the smallest under-threshold bin into
// its smaller neighbour until every bin meets the threshold or one bin
// remains.
func mergeSmallBins(bounds []float64, counts []int, minCount int) ([]float64, []int) {
	for len(counts) > 1 {
		// Find the smallest bin below threshold.
		idx, min := -1, minCount
		for i, c := range counts {
			if c < min {
				idx, min = i, c
			}
		}
		if idx == -1 {
			break
		}
		// Merge with the smaller neighbour.
		var into int
		switch {
		case idx == 0:
			into = 0 // merge bins 0 and 1
		case idx == len(counts)-1:
			into = idx - 1
		case counts[idx-1] <= counts[idx+1]:
			into = idx - 1
		default:
			into = idx
		}
		counts[into] += counts[into+1]
		counts = append(counts[:into+1], counts[into+2:]...)
		bounds = append(bounds[:into+1], bounds[into+2:]...)
	}
	return bounds, counts
}

// localEstimator builds the per-bin kernel estimator: boundary kernels at
// the bin edges and a bandwidth chosen from the bin's own samples (the
// paper: "the bandwidth of the kernel estimator is individually chosen for
// every bin"). Degenerate segments fall back to nil (uniform spread).
func localEstimator(segment []float64, lo, hi float64) *kde.Estimator {
	if len(segment) < 4 {
		return nil
	}
	// The segment is a contiguous slice of the build's sorted array, so
	// its fit context costs no sort and no copy.
	sctx, err := kde.NewFitContextSorted(segment)
	if err != nil {
		return nil
	}
	h, err := bandwidth.NormalScaleBandwidthSorted(segment, kernel.Epanechnikov{})
	if err != nil || h <= 0 {
		return nil
	}
	// Cap the bandwidth at the bin width: a wider kernel than the bin
	// cannot be repaired by boundary kernels.
	if w := hi - lo; h > w {
		h = w
	}
	est, err := sctx.NewEstimator(kde.Config{
		Bandwidth: h, Boundary: kde.BoundaryKernels, DomainLo: lo, DomainHi: hi,
	})
	if err != nil {
		return nil
	}
	return est
}

// Selectivity returns the estimated selectivity σ̂(a,b) ∈ [0,1]: the
// weighted sum of the per-bin estimates over the clipped query range.
func (e *Estimator) Selectivity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a {
		return 0
	}
	a = math.Max(a, e.lo)
	b = math.Min(b, e.hi)
	if b < a {
		return 0
	}
	sum := 0.0
	for _, bn := range e.bins {
		if bn.weight == 0 || bn.hi < a {
			continue
		}
		if bn.lo > b {
			break
		}
		qa, qb := math.Max(a, bn.lo), math.Min(b, bn.hi)
		if qb < qa {
			continue
		}
		if bn.est != nil {
			sum += bn.weight * bn.est.SelectivityUnclamped(qa, qb) / bn.mass
		} else {
			// Uniform spread inside a degenerate bin.
			sum += bn.weight * (qb - qa) / (bn.hi - bn.lo)
		}
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// Density returns the estimated density f̂(x).
func (e *Estimator) Density(x float64) float64 {
	if x < e.lo || x > e.hi {
		return 0
	}
	for _, bn := range e.bins {
		if x > bn.hi {
			continue
		}
		if x < bn.lo {
			return 0
		}
		if bn.weight == 0 {
			return 0
		}
		if bn.est != nil {
			return bn.weight * bn.est.Density(x) / bn.mass
		}
		return bn.weight / (bn.hi - bn.lo)
	}
	return 0
}

// Bins returns the number of partition cells.
func (e *Estimator) Bins() int { return len(e.bins) }

// ChangePoints returns the accepted change points (after merging), for
// diagnostics and tests.
func (e *Estimator) ChangePoints() []float64 {
	return append([]float64(nil), e.points...)
}

// Name identifies the estimator in experiment output.
func (e *Estimator) Name() string { return "hybrid" }
