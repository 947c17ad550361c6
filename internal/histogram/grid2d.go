package histogram

import (
	"fmt"
	"math"
)

// Grid2D is a two-dimensional equi-width grid histogram over paired
// attributes — the histogram counterpart of the 2-D product-kernel
// estimator in internal/kde, and the classical multidimensional
// statistics structure in database systems. Each cell assumes uniform
// spread, exactly like the 1-D bins of paper §3.1.
type Grid2D struct {
	loX, hiX, loY, hiY float64
	kx, ky             int
	counts             []int // row-major: counts[iy*kx + ix]
	n                  int
}

// BuildGrid2D builds a kx×ky grid over [loX,hiX]×[loY,hiY] from paired
// samples. Samples outside the domain are ignored.
func BuildGrid2D(xs, ys []float64, kx, ky int, loX, hiX, loY, hiY float64) (*Grid2D, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("histogram: need equal, non-zero sample slices, got %d/%d", len(xs), len(ys))
	}
	if kx < 1 || ky < 1 {
		return nil, fmt.Errorf("histogram: grid dimensions must be >= 1, got %d×%d", kx, ky)
	}
	if !(hiX > loX) || !(hiY > loY) {
		return nil, fmt.Errorf("histogram: empty grid domain")
	}
	g := &Grid2D{
		loX: loX, hiX: hiX, loY: loY, hiY: hiY,
		kx: kx, ky: ky,
		counts: make([]int, kx*ky),
		n:      len(xs),
	}
	wx := (hiX - loX) / float64(kx)
	wy := (hiY - loY) / float64(ky)
	for i := range xs {
		x, y := xs[i], ys[i]
		if x < loX || x > hiX || y < loY || y > hiY {
			continue
		}
		ix := int((x - loX) / wx)
		if ix >= kx {
			ix = kx - 1
		}
		iy := int((y - loY) / wy)
		if iy >= ky {
			iy = ky - 1
		}
		g.counts[iy*kx+ix]++
	}
	return g, nil
}

// Selectivity estimates the fraction of records in the window
// [ax,bx]×[ay,by] under the per-cell uniform-spread assumption.
func (g *Grid2D) Selectivity(ax, bx, ay, by float64) float64 {
	if bx < ax || by < ay || g.n == 0 {
		return 0
	}
	wx := (g.hiX - g.loX) / float64(g.kx)
	wy := (g.hiY - g.loY) / float64(g.ky)
	// Cell index ranges overlapping the window.
	ix0 := clampIdx(int((ax-g.loX)/wx), g.kx)
	ix1 := clampIdx(int(math.Ceil((bx-g.loX)/wx))-1, g.kx)
	iy0 := clampIdx(int((ay-g.loY)/wy), g.ky)
	iy1 := clampIdx(int(math.Ceil((by-g.loY)/wy))-1, g.ky)

	sum := 0.0
	for iy := iy0; iy <= iy1; iy++ {
		cellLoY := g.loY + float64(iy)*wy
		fy := overlapFrac(ay, by, cellLoY, cellLoY+wy)
		if fy == 0 {
			continue
		}
		for ix := ix0; ix <= ix1; ix++ {
			c := g.counts[iy*g.kx+ix]
			if c == 0 {
				continue
			}
			cellLoX := g.loX + float64(ix)*wx
			fx := overlapFrac(ax, bx, cellLoX, cellLoX+wx)
			sum += float64(c) * fx * fy
		}
	}
	s := sum / float64(g.n)
	if s > 1 {
		return 1
	}
	return s
}

// overlapFrac returns the fraction of [cellLo, cellHi] covered by [a, b].
func overlapFrac(a, b, cellLo, cellHi float64) float64 {
	o := math.Min(b, cellHi) - math.Max(a, cellLo)
	if o <= 0 {
		return 0
	}
	return o / (cellHi - cellLo)
}

func clampIdx(i, k int) int {
	if i < 0 {
		return 0
	}
	if i >= k {
		return k - 1
	}
	return i
}

// SampleSize returns the number of samples.
func (g *Grid2D) SampleSize() int { return g.n }

// Name identifies the estimator in experiment output.
func (g *Grid2D) Name() string { return "grid2d" }
