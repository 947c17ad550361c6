package histogram

import "fmt"

// ASH is the average shifted histogram (paper §3.1): m equi-width
// histograms with identical bin width but starting points offset by
// width/m, whose estimates are averaged. Averaging smooths away most of
// the jump-point artefacts of a single histogram at the cost of m-fold
// build work.
type ASH struct {
	shifts []*Histogram
	lo, hi float64
}

// BuildASH builds an average shifted histogram over [lo, hi] with k bins
// per shift and m shifts from a sample sorted ascending.
func BuildASH(sorted []float64, k, m int, lo, hi float64) (*ASH, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("histogram: ASH needs k >= 1 bins and m >= 1 shifts, got k=%d m=%d", k, m)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("histogram: domain [%v, %v] is empty", lo, hi)
	}
	width := (hi - lo) / float64(k)
	a := &ASH{lo: lo, hi: hi, shifts: make([]*Histogram, 0, m)}
	for s := 0; s < m; s++ {
		offset := width * float64(s) / float64(m)
		// Each shifted histogram extends one bin beyond the domain on the
		// left so that every sample stays covered; the extra bin is clipped
		// by Selectivity's query range anyway.
		bounds := make([]float64, k+2)
		for i := range bounds {
			bounds[i] = lo - width + offset + float64(i)*width
		}
		h, err := newHistogram("equi-width", bounds, sorted)
		if err != nil {
			return nil, err
		}
		a.shifts = append(a.shifts, h)
	}
	return a, nil
}

// Selectivity averages the shifted histograms' estimates.
func (a *ASH) Selectivity(qa, qb float64) float64 {
	if qb < qa {
		return 0
	}
	sum := 0.0
	for _, h := range a.shifts {
		sum += h.Selectivity(qa, qb)
	}
	return sum / float64(len(a.shifts))
}

// Density averages the shifted histograms' density estimates.
func (a *ASH) Density(x float64) float64 {
	sum := 0.0
	for _, h := range a.shifts {
		sum += h.Density(x)
	}
	return sum / float64(len(a.shifts))
}

// Name identifies the estimator in experiment output.
func (a *ASH) Name() string { return "ash" }
