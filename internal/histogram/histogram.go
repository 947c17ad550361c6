// Package histogram implements the histogram selectivity estimators of the
// paper's comparison: equi-width, equi-depth, max-diff, the trivial uniform
// estimator (one bin), the average shifted histogram (ASH), and — as an
// extension baseline — the v-optimal histogram.
//
// All histograms share one representation: bin boundaries c₀ < … < c_k and
// per-bin sample counts n_i. Selectivity follows paper eq. 4 under the
// uniform-spread assumption inside each bin.
//
// Every builder takes the sample sorted ascending and reads it in place.
package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a bucketised density estimate over samples. Construct with
// one of the Build* functions; the zero value is unusable. Histograms are
// immutable and safe for concurrent use.
type Histogram struct {
	kind   string
	bounds []float64 // k+1 boundaries, strictly increasing
	counts []int     // k per-bin sample counts
	n      int       // total number of samples
}

// newHistogram validates and assembles a histogram from boundaries and the
// sorted sample set, counting samples per bin. The first bin is
// [c0, c1]; subsequent bins are (c_i, c_{i+1}] following the paper's bin
// definition. Each count is the distance between two edge searches over
// the sorted sample, so a build costs k+1 searches rather than one per
// sample; samples outside [c0, ck] (and NaNs) fall in no bin.
func newHistogram(kind string, bounds []float64, sorted []float64) (*Histogram, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("histogram: need at least 2 boundaries, got %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("histogram: boundaries not strictly increasing at %d: %v >= %v", i, bounds[i-1], bounds[i])
		}
	}
	h := &Histogram{
		kind:   kind,
		bounds: bounds,
		counts: make([]int, len(bounds)-1),
		n:      len(sorted),
	}
	// prev is the first sample of bin i: for bin 0 the first sample ≥ c0,
	// for the others the first sample > c_i, which is where bin i−1 ends.
	prev := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= bounds[0] })
	for i, c := range bounds[1:] {
		end := prev + sort.Search(len(sorted)-prev, func(j int) bool { return sorted[prev+j] > c })
		h.counts[i] = end - prev
		prev = end
	}
	return h, nil
}

// binOf returns the bin index of x, or −1 if x lies outside the histogram.
func (h *Histogram) binOf(x float64) int {
	if x < h.bounds[0] || x > h.bounds[len(h.bounds)-1] {
		return -1
	}
	// First boundary strictly greater than x; bin i covers (c_i, c_{i+1}]
	// except bin 0, which is closed on the left.
	i := sort.SearchFloat64s(h.bounds, x)
	if i < len(h.bounds) && h.bounds[i] == x {
		// x sits exactly on boundary i: it belongs to bin i−1 (the bin
		// whose right edge it is), except x == c0, which belongs to bin 0.
		if i == 0 {
			return 0
		}
		return i - 1
	}
	return i - 1
}

// Name identifies the estimator in experiment output.
func (h *Histogram) Name() string { return h.kind }

// Bins returns the number of bins k.
func (h *Histogram) Bins() int { return len(h.counts) }

// SampleSize returns the number of samples the histogram was built from.
func (h *Histogram) SampleSize() int { return h.n }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int {
	return append([]int(nil), h.counts...)
}

// Selectivity returns the estimated selectivity σ̂_H(a,b) per paper eq. 4:
// each bin contributes its count scaled by the overlapped fraction of its
// width.
func (h *Histogram) Selectivity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || b < a || h.n == 0 {
		return 0
	}
	sum := 0.0
	// Bins are sorted; restrict the scan to those overlapping [a,b].
	first := sort.SearchFloat64s(h.bounds, a) - 1
	if first < 0 {
		first = 0
	}
	for i := first; i < len(h.counts); i++ {
		lo, hi := h.bounds[i], h.bounds[i+1]
		if lo > b {
			break
		}
		if h.counts[i] == 0 {
			continue
		}
		overlap := math.Min(b, hi) - math.Max(a, lo)
		if overlap <= 0 {
			continue
		}
		sum += float64(h.counts[i]) * overlap / (hi - lo)
	}
	s := sum / float64(h.n)
	if s > 1 {
		return 1
	}
	return s
}

// Density returns the histogram density estimate f̂_H(x) (paper §3.1).
func (h *Histogram) Density(x float64) float64 {
	i := h.binOf(x)
	if i < 0 || h.n == 0 {
		return 0
	}
	width := h.bounds[i+1] - h.bounds[i]
	return float64(h.counts[i]) / (float64(h.n) * width)
}

// BuildEquiWidth builds an equi-width histogram with k bins over the
// domain [lo, hi] from a sample sorted ascending. Samples outside the
// domain are ignored.
func BuildEquiWidth(sorted []float64, k int, lo, hi float64) (*Histogram, error) {
	if k < 1 {
		return nil, fmt.Errorf("histogram: bin count must be >= 1, got %d", k)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("histogram: domain [%v, %v] is empty", lo, hi)
	}
	bounds := make([]float64, k+1)
	width := (hi - lo) / float64(k)
	for i := range bounds {
		bounds[i] = lo + float64(i)*width
	}
	bounds[k] = hi
	return newHistogram("equi-width", bounds, sorted)
}

// BuildUniform builds the one-bin "uniform assumption" estimator over
// [lo, hi] from a sample sorted ascending — System R's model, the paper's
// worst-case baseline.
func BuildUniform(sorted []float64, lo, hi float64) (*Histogram, error) {
	h, err := BuildEquiWidth(sorted, 1, lo, hi)
	if err != nil {
		return nil, err
	}
	h.kind = "uniform"
	return h, nil
}

// BuildEquiDepth builds an equi-depth histogram with (up to) k bins from
// a sample sorted ascending: bin boundaries sit at the sample quantiles
// so every bin holds about the same number of samples. Duplicate
// quantiles (heavy duplicate values) collapse, so the result may have
// fewer than k bins.
func BuildEquiDepth(sorted []float64, k int) (*Histogram, error) {
	if k < 1 {
		return nil, fmt.Errorf("histogram: bin count must be >= 1, got %d", k)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("histogram: equi-depth needs samples")
	}
	if sorted[0] == sorted[len(sorted)-1] {
		return nil, fmt.Errorf("histogram: all samples identical; no interval structure")
	}
	bounds := make([]float64, 0, k+1)
	bounds = append(bounds, sorted[0])
	for i := 1; i < k; i++ {
		q := quantileSorted(sorted, float64(i)/float64(k))
		if q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	if top := sorted[len(sorted)-1]; top > bounds[len(bounds)-1] {
		bounds = append(bounds, top)
	}
	if len(bounds) < 2 {
		return nil, fmt.Errorf("histogram: degenerate equi-depth boundaries")
	}
	return newHistogram("equi-depth", bounds, sorted)
}

// BuildMaxDiff builds a max-diff histogram with (up to) k bins from a
// sample sorted ascending: the k−1 largest gaps between adjacent distinct
// sample values become bin boundaries (paper §3.1, following Poosala et
// al.).
func BuildMaxDiff(sorted []float64, k int) (*Histogram, error) {
	if k < 1 {
		return nil, fmt.Errorf("histogram: bin count must be >= 1, got %d", k)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("histogram: max-diff needs samples")
	}
	if sorted[0] == sorted[len(sorted)-1] {
		return nil, fmt.Errorf("histogram: all samples identical; no interval structure")
	}

	// Gaps between adjacent distinct values.
	type gap struct {
		mid  float64
		size float64
	}
	var gaps []gap
	for i := 1; i < len(sorted); i++ {
		if d := sorted[i] - sorted[i-1]; d > 0 {
			gaps = append(gaps, gap{mid: 0.5 * (sorted[i-1] + sorted[i]), size: d})
		}
	}
	// Largest k−1 gaps become boundaries.
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].size > gaps[j].size })
	if len(gaps) > k-1 {
		gaps = gaps[:k-1]
	}
	bounds := make([]float64, 0, len(gaps)+2)
	bounds = append(bounds, sorted[0])
	for _, g := range gaps {
		bounds = append(bounds, g.mid)
	}
	bounds = append(bounds, sorted[len(sorted)-1])
	sort.Float64s(bounds)
	bounds = dedupe(bounds)
	if len(bounds) < 2 {
		return nil, fmt.Errorf("histogram: degenerate max-diff boundaries")
	}
	return newHistogram("max-diff", bounds, sorted)
}

// quantileSorted is the type-7 quantile on sorted data (shared with the
// stats package's definition; duplicated here to keep histogram free of
// that dependency).
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// dedupe removes exact duplicates from a sorted slice, in place.
func dedupe(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
