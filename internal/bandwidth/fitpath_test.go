package bandwidth

// Fit-path engine equivalence suite: the shared-context DPI, the batched
// grid evaluation, and the parallel searches must reproduce the seed
// (sort-per-fit, pointwise, sequential) implementations. The seed paths
// are kept here as references — verbatim apart from the normal-scale
// start, which now only exists over sorted input — and are also what the
// before/after benchmarks in fit_bench_test.go measure against.

import (
	"math"
	"testing"

	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/xmath"
)

// fitTol is the DPI equivalence budget: the context path accumulates the
// scale estimate in sorted order and answers pilot grids through the
// double-double closed form, so results may differ from the seed in the
// last few bits but never beyond 1e-12 relative.
const fitTol = 1e-12

// estimateRoughnessSecondRef is the seed implementation: a fresh kde.New
// (with its own sort) per pilot and a pointwise Density scan of the grid.
func estimateRoughnessSecondRef(samples []float64, k kernel.Kernel, h, lo, hi float64) (float64, error) {
	e, err := kde.New(samples, kde.Config{Kernel: k, Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return 0, err
	}
	xs := xmath.Linspace(lo, hi, functionalGridSize)
	dx := xs[1] - xs[0]
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = e.Density(x)
	}
	d2 := xmath.SecondDerivativeTable(ys, dx)
	for i, v := range d2 {
		d2[i] = v * v
	}
	return xmath.IntegrateSamples(d2, dx), nil
}

// estimateRoughnessFirstRef is the seed ∫f'² analogue.
func estimateRoughnessFirstRef(samples []float64, k kernel.Kernel, h, lo, hi float64) (float64, error) {
	e, err := kde.New(samples, kde.Config{Kernel: k, Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: lo, DomainHi: hi})
	if err != nil {
		return 0, err
	}
	xs := xmath.Linspace(lo, hi, functionalGridSize)
	dx := xs[1] - xs[0]
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = e.Density(x)
	}
	d1 := xmath.GradientTable(ys, dx)
	for i, v := range d1 {
		d1[i] = v * v
	}
	return xmath.IntegrateSamples(d1, dx), nil
}

// dpiBandwidthRef is the seed DPI iteration, kept verbatim.
func dpiBandwidthRef(samples []float64, k kernel.Kernel, steps int, lo, hi float64) (float64, error) {
	h, err := NormalScaleBandwidthSorted(sortedCopy(samples), k)
	if err != nil {
		return 0, err
	}
	if steps <= 0 {
		return h, nil
	}
	n := len(samples)
	for step := 0; step < steps; step++ {
		pilot := 1.5 * h
		r2, err := estimateRoughnessSecondRef(samples, k, pilot, lo, hi)
		if err != nil {
			return 0, err
		}
		if r2 <= 0 || math.IsNaN(r2) {
			break
		}
		hNew := OptimalBandwidth(n, k, r2)
		if math.IsInf(hNew, 1) || math.IsNaN(hNew) || hNew <= 0 {
			break
		}
		h = hNew
	}
	return h, nil
}

// dpiBinWidthRef is the seed bin-width DPI iteration, kept verbatim.
func dpiBinWidthRef(samples []float64, steps int, lo, hi float64) (float64, error) {
	h, err := NormalScaleBinWidthSorted(sortedCopy(samples))
	if err != nil {
		return 0, err
	}
	if steps <= 0 {
		return h, nil
	}
	n := len(samples)
	k := kernel.Epanechnikov{}
	pilotH, err := NormalScaleBandwidthSorted(sortedCopy(samples), k)
	if err != nil {
		return 0, err
	}
	for step := 0; step < steps; step++ {
		r1, err := estimateRoughnessFirstRef(samples, k, pilotH, lo, hi)
		if err != nil {
			return 0, err
		}
		if r1 <= 0 || math.IsNaN(r1) {
			break
		}
		hNew := OptimalBinWidth(n, r1)
		if math.IsInf(hNew, 1) || math.IsNaN(hNew) || hNew <= 0 {
			break
		}
		h = hNew
		pilotH = 1.5 * hNew
	}
	return h, nil
}

// lscvScoreRef is the seed pair walk: interface dispatch and the shared
// self-convolution helper on every pair.
func lscvScoreRef(sorted []float64, k kernel.Kernel, h float64) float64 {
	n := len(sorted)
	nf := float64(n)
	reach := 2 * h * k.Support()
	var convSum, looSum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && sorted[j]-sorted[i] <= reach; j++ {
			d := (sorted[j] - sorted[i]) / h
			convSum += kernelSelfConvolution(k, d)
			looSum += k.Eval(d)
		}
	}
	convDiag := kernelSelfConvolution(k, 0)
	integralF2 := (nf*convDiag + 2*convSum) / (nf * nf * h)
	leaveOneOut := 2 * looSum / (nf * (nf - 1) * h)
	return integralF2 - 2*leaveOneOut
}

// lscvBandwidthRef is the seed selector: sequential xmath.LogGridMin over
// the reference score.
func lscvBandwidthRef(sorted []float64, k kernel.Kernel, hLo, hHi float64, gridN int) float64 {
	h, _ := xmath.LogGridMin(func(h float64) float64 {
		return lscvScoreRef(sorted, k, h)
	}, hLo, hHi, gridN)
	return h
}

func clusteredSamples(t testing.TB, n int, seed uint64) []float64 {
	t.Helper()
	half := normalSamples(t, n/2, 200, 12, seed)
	rest := normalSamples(t, n-n/2, 700, 40, seed+1)
	return append(half, rest...)
}

func TestDPIBandwidthMatchesSeedReference(t *testing.T) {
	for _, steps := range []int{0, 1, 2, 3} {
		for _, mk := range []struct {
			name    string
			samples []float64
		}{
			{"normal", normalSamples(t, 1500, 500, 80, 11)},
			{"bimodal", clusteredSamples(t, 1500, 12)},
		} {
			got, err := DPIBandwidthContext(fitContext(t, mk.samples), kernel.Epanechnikov{}, steps, 0, 1000)
			if err != nil {
				t.Fatalf("%s steps=%d: %v", mk.name, steps, err)
			}
			want, err := dpiBandwidthRef(mk.samples, kernel.Epanechnikov{}, steps, 0, 1000)
			if err != nil {
				t.Fatalf("%s steps=%d ref: %v", mk.name, steps, err)
			}
			if !xmath.AlmostEqual(got, want, fitTol) {
				t.Fatalf("%s steps=%d: context DPI %v, seed %v (rel %v)", mk.name, steps, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

func TestDPIBinWidthMatchesSeedReference(t *testing.T) {
	samples := clusteredSamples(t, 2000, 21)
	for _, steps := range []int{0, 2} {
		got, err := DPIBinWidthContext(fitContext(t, samples), steps, 0, 1000)
		if err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		want, err := dpiBinWidthRef(samples, steps, 0, 1000)
		if err != nil {
			t.Fatalf("steps=%d ref: %v", steps, err)
		}
		if !xmath.AlmostEqual(got, want, fitTol) {
			t.Fatalf("steps=%d: context DPI width %v, seed %v", steps, got, want)
		}
	}
}

// TestDPIContextSameFromSortedInput pins that both DPI rules agree
// exactly over a context that sorts the sample (NewFitContext) and one
// that aliases the caller's sorted copy (NewFitContextSorted, as core's
// build path does): same sorted data, same code underneath.
func TestDPIContextSameFromSortedInput(t *testing.T) {
	samples := normalSamples(t, 1000, 300, 50, 31)
	aliased, err := kde.NewFitContextSorted(sortedCopy(samples))
	if err != nil {
		t.Fatal(err)
	}
	var hs, ws []float64
	for _, ctx := range []*kde.FitContext{fitContext(t, samples), aliased} {
		h, err := DPIBandwidthContext(ctx, kernel.Epanechnikov{}, 2, 0, 600)
		if err != nil {
			t.Fatal(err)
		}
		w, err := DPIBinWidthContext(ctx, 2, 0, 600)
		if err != nil {
			t.Fatal(err)
		}
		hs, ws = append(hs, h), append(ws, w)
	}
	if hs[0] != hs[1] || ws[0] != ws[1] {
		t.Fatalf("sorting context: h %v, width %v; aliasing context: h %v, width %v", hs[0], ws[0], hs[1], ws[1])
	}
}

// TestLSCVWorkersBitIdentical is the determinism pin for the parallel
// grid: every worker count must select the exact bandwidth the seed's
// sequential LogGridMin scan selects, for both the devirtualised
// Epanechnikov walk and the generic kernel path.
func TestLSCVWorkersBitIdentical(t *testing.T) {
	sorted := sortedCopy(clusteredSamples(t, 600, 41))
	for _, k := range []kernel.Kernel{kernel.Epanechnikov{}, kernel.Triangular{}} {
		want := lscvBandwidthRef(sorted, k, 0.5, 200, 25)
		for _, workers := range []int{1, 2, 8} {
			got, err := LSCVBandwidthSorted(sorted, k, 0.5, 200, 25, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", k.Name(), workers, err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: h %v != seed %v", k.Name(), workers, got, want)
			}
		}
	}
}

// TestLSCVScoreDevirtualisedBitIdentical holds the inlined Epanechnikov
// walk to the generic reference score across the whole grid, not just at
// the selected minimum.
func TestLSCVScoreDevirtualisedBitIdentical(t *testing.T) {
	sorted := sortedCopy(clusteredSamples(t, 400, 43))
	for _, h := range logGrid(0.5, 300, 40) {
		if got, want := lscvScoreEpanechnikov(sorted, h), lscvScoreRef(sorted, kernel.Epanechnikov{}, h); got != want {
			t.Fatalf("h=%v: devirtualised %v != reference %v", h, got, want)
		}
	}
}

func TestOracleWorkersBitIdentical(t *testing.T) {
	loss := func(h float64) float64 {
		lg := math.Log(h)
		return (lg-1)*(lg-1) + 0.3*math.Sin(7*lg)
	}
	want, _ := xmath.LogGridMin(loss, 0.05, 50, 81)
	for _, workers := range []int{1, 2, 8} {
		got, err := OracleWorkers(loss, 0.05, 50, 81, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: h %v != sequential %v", workers, got, want)
		}
	}
}

func TestOracleBinsWorkersBitIdentical(t *testing.T) {
	loss := func(k int) float64 {
		d := math.Log(float64(k)) - math.Log(120)
		return d*d + 0.1*math.Cos(float64(k))
	}
	// Seed semantics: ascending multiplicative scan, strict-less argmin.
	wantBest, wantLoss := 1, math.Inf(1)
	for k := 1; k <= 2000; {
		if l := loss(k); l < wantLoss {
			wantBest, wantLoss = k, l
		}
		next := k + k/4
		if next <= k {
			next = k + 1
		}
		k = next
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := OracleBinsWorkers(loss, 1, 2000, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != wantBest {
			t.Fatalf("workers=%d: k %d != sequential %d", workers, got, wantBest)
		}
	}
}

// TestPilotHistogramRecords is the structural telemetry check for the
// pilot-build histograms: a 2-step DPI fit must land two observations in
// the dpi-labeled histogram.
func TestPilotHistogramRecords(t *testing.T) {
	before := pilotNanosDPI.Count()
	if _, err := DPIBandwidthContext(fitContext(t, normalSamples(t, 400, 100, 10, 51)), kernel.Epanechnikov{}, 2, 0, 200); err != nil {
		t.Fatal(err)
	}
	if got := pilotNanosDPI.Count(); got < before+2 {
		t.Fatalf("pilot histogram count moved %d -> %d, want at least +2", before, got)
	}
	beforeBW := pilotNanosDPIBinWidth.Count()
	if _, err := DPIBinWidthContext(fitContext(t, normalSamples(t, 400, 100, 10, 52)), 1, 0, 200); err != nil {
		t.Fatal(err)
	}
	if got := pilotNanosDPIBinWidth.Count(); got < beforeBW+1 {
		t.Fatalf("binwidth pilot histogram moved %d -> %d, want at least +1", beforeBW, got)
	}
}
