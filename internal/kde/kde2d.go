package kde

import (
	"fmt"
	"math"

	"selest/internal/kernel"
)

// Estimator2D estimates the selectivity of two-dimensional range queries
// with a product kernel
//
//	f̂(x,y) = 1/(n·hx·hy) Σ K((x−Xi)/hx)·K((y−Yi)/hy)
//
// and per-axis bandwidths. This implements the first item of the paper's
// future-work list ("multidimensional kernel estimators to estimate the
// selectivity of multidimensional range queries"). Boundary repair uses
// per-axis reflection; the Simonoff–Dong family does not factorise over
// axes, so boundary kernels are a 1-D-only feature.
type Estimator2D struct {
	xs, ys []float64 // paired samples, in insertion order
	n      int
	hx, hy float64
	k      kernel.Epanechnikov
	// Optional reflection domain; reflect is false when unset.
	reflect            bool
	loX, hiX, loY, hiY float64
}

// Config2D parameterises a two-dimensional kernel estimator. Its
// per-axis kernel is the Epanechnikov.
type Config2D struct {
	// BandwidthX and BandwidthY are the per-axis smoothing parameters.
	BandwidthX, BandwidthY float64
	// Reflect enables per-axis sample reflection at the given domain.
	Reflect            bool
	LoX, HiX, LoY, HiY float64
}

// New2D builds a 2-D estimator from paired samples (copied).
func New2D(xs, ys []float64, cfg Config2D) (*Estimator2D, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("kde: need equal, non-zero sample slices, got %d/%d", len(xs), len(ys))
	}
	if cfg.BandwidthX <= 0 || cfg.BandwidthY <= 0 {
		return nil, fmt.Errorf("kde: 2-D bandwidths must be positive, got (%v, %v)", cfg.BandwidthX, cfg.BandwidthY)
	}
	if cfg.Reflect && (cfg.LoX >= cfg.HiX || cfg.LoY >= cfg.HiY) {
		return nil, fmt.Errorf("kde: 2-D reflection needs proper domains")
	}
	return &Estimator2D{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		n:  len(xs),
		hx: cfg.BandwidthX, hy: cfg.BandwidthY,
		reflect: cfg.Reflect,
		loX:     cfg.LoX, hiX: cfg.HiX, loY: cfg.LoY, hiY: cfg.HiY,
	}, nil
}

// Selectivity returns the estimated fraction of records with
// ax <= X <= bx and ay <= Y <= by.
//
// The product kernel factorises the integral per sample:
// ∫∫ = [F((bx−Xi)/hx) − F((ax−Xi)/hx)] · [F((by−Yi)/hy) − F((ay−Yi)/hy)].
func (e *Estimator2D) Selectivity(ax, bx, ay, by float64) float64 {
	if bx < ax || by < ay {
		return 0
	}
	if e.reflect {
		ax, bx = math.Max(ax, e.loX), math.Min(bx, e.hiX)
		ay, by = math.Max(ay, e.loY), math.Min(by, e.hiY)
		if bx < ax || by < ay {
			return 0
		}
	}
	sum := 0.0
	for i := 0; i < e.n; i++ {
		sum += e.massX(ax, bx, e.xs[i]) * e.massY(ay, by, e.ys[i])
	}
	s := sum / float64(e.n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// massX is the x-axis kernel mass of a sample over [a,b], with reflection.
func (e *Estimator2D) massX(a, b, x float64) float64 {
	m := e.k.CDF((b-x)/e.hx) - e.k.CDF((a-x)/e.hx)
	if e.reflect {
		for _, mx := range []float64{2*e.loX - x, 2*e.hiX - x} {
			m += e.k.CDF((b-mx)/e.hx) - e.k.CDF((a-mx)/e.hx)
		}
	}
	return m
}

// massY is the y-axis kernel mass of a sample over [a,b], with reflection.
func (e *Estimator2D) massY(a, b, y float64) float64 {
	m := e.k.CDF((b-y)/e.hy) - e.k.CDF((a-y)/e.hy)
	if e.reflect {
		for _, my := range []float64{2*e.loY - y, 2*e.hiY - y} {
			m += e.k.CDF((b-my)/e.hy) - e.k.CDF((a-my)/e.hy)
		}
	}
	return m
}

// Density returns the estimated joint density f̂(x, y).
func (e *Estimator2D) Density(x, y float64) float64 {
	if e.reflect && (x < e.loX || x > e.hiX || y < e.loY || y > e.hiY) {
		return 0
	}
	sum := 0.0
	for i := 0; i < e.n; i++ {
		kx := e.k.Eval((x - e.xs[i]) / e.hx)
		if e.reflect {
			kx += e.k.Eval((x-(2*e.loX-e.xs[i]))/e.hx) + e.k.Eval((x-(2*e.hiX-e.xs[i]))/e.hx)
		}
		if kx == 0 {
			continue
		}
		ky := e.k.Eval((y - e.ys[i]) / e.hy)
		if e.reflect {
			ky += e.k.Eval((y-(2*e.loY-e.ys[i]))/e.hy) + e.k.Eval((y-(2*e.hiY-e.ys[i]))/e.hy)
		}
		sum += kx * ky
	}
	return sum / (float64(e.n) * e.hx * e.hy)
}

// SampleSize returns the number of samples.
func (e *Estimator2D) SampleSize() int { return e.n }

// Name identifies the estimator in experiment output.
func (e *Estimator2D) Name() string { return "kernel2d(" + e.k.Name() + ")" }
