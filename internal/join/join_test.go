package join

import (
	"math"
	"testing"
	"testing/quick"

	"selest/internal/bandwidth"
	"selest/internal/kde"
	"selest/internal/kernel"
	"selest/internal/sample"
	"selest/internal/xrand"
)

// intColumn draws n integer values from a Normal clipped to [0, 1000].
func intColumn(n int, mean, std float64, seed uint64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		v := math.Round(r.NormalMeanStd(mean, std))
		if v < 0 {
			v = 0
		} else if v > 1000 {
			v = 1000
		}
		out[i] = v
	}
	return out
}

func kdeFor(t *testing.T, samples []float64) *kde.Estimator {
	t.Helper()
	ctx, err := kde.NewFitContext(samples)
	if err != nil {
		t.Fatal(err)
	}
	h, err := bandwidth.NormalScaleBandwidthSorted(ctx.Sorted(), kernel.Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := ctx.NewEstimator(kde.Config{Bandwidth: h, Boundary: kde.BoundaryReflect, DomainLo: 0, DomainHi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestExactEquiJoin(t *testing.T) {
	r := []float64{1, 2, 2, 3}
	s := []float64{2, 2, 3, 9}
	// value 2: 2×2 = 4 pairs; value 3: 1×1 = 1 pair.
	if got := ExactEquiJoin(r, s); got != 5 {
		t.Fatalf("ExactEquiJoin = %d, want 5", got)
	}
	if ExactEquiJoin(nil, s) != 0 || ExactEquiJoin(r, nil) != 0 {
		t.Fatal("empty side should join to 0")
	}
}

func TestExactBandJoin(t *testing.T) {
	r := []float64{0, 10}
	s := []float64{1, 5, 11}
	// band 2: 0 matches {1}; 10 matches {11} → 2 pairs.
	if got := ExactBandJoin(r, s, 2); got != 2 {
		t.Fatalf("ExactBandJoin = %d, want 2", got)
	}
	// band 0 equals equi-join on exact values.
	if got := ExactBandJoin([]float64{5, 5}, []float64{5}, 0); got != 2 {
		t.Fatalf("band-0 join = %d, want 2", got)
	}
	if ExactBandJoin(r, s, -1) != 0 {
		t.Fatal("negative band should be 0")
	}
}

func TestExactBandJoinMatchesBruteForce(t *testing.T) {
	rng := xrand.New(1)
	r := make([]float64, 300)
	s := make([]float64, 400)
	for i := range r {
		r[i] = rng.Float64() * 100
	}
	for i := range s {
		s[i] = rng.Float64() * 100
	}
	for _, band := range []float64{0.5, 3, 20} {
		var brute int64
		for _, a := range r {
			for _, b := range s {
				if math.Abs(a-b) <= band {
					brute++
				}
			}
		}
		if got := ExactBandJoin(r, s, band); got != brute {
			t.Fatalf("band %v: %d, brute force %d", band, got, brute)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	est := kdeFor(t, intColumn(500, 500, 100, 2))
	if _, err := Estimate(nil, est, 1, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("nil density should error")
	}
	if _, err := Estimate(est, est, -1, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("negative cardinality should error")
	}
	if _, err := Estimate(est, est, 1, 1, 5, 5, 1, 0); err == nil {
		t.Fatal("empty domain should error")
	}
	if _, err := Estimate(est, est, 1, 1, 0, 1, 0, 0); err == nil {
		t.Fatal("zero granule should error")
	}
}

func TestEquiJoinEstimateAccuracy(t *testing.T) {
	// Two overlapping normal columns; the kernel-density estimate of the
	// join size should land within a modest factor of the truth.
	rCol := intColumn(50000, 450, 80, 3)
	sCol := intColumn(40000, 550, 90, 4)
	exact := ExactEquiJoin(rCol, sCol)

	rng := xrand.New(5)
	rSmp, err := sample.WithoutReplacement(rng, rCol, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sSmp, err := sample.WithoutReplacement(rng, sCol, 2000)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(kdeFor(t, rSmp), kdeFor(t, sSmp), int64(len(rCol)), int64(len(sCol)), 0, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := RelativeError(est, exact); relErr > 0.15 {
		t.Fatalf("equi-join estimate %v vs exact %d: rel err %v", est, exact, relErr)
	}
}

func TestEquiJoinDisjointColumns(t *testing.T) {
	// Non-overlapping value ranges: the join is empty and the estimate
	// must be near zero relative to |R|·|S|.
	rCol := intColumn(20000, 200, 30, 6)
	sCol := intColumn(20000, 800, 30, 7)
	if exact := ExactEquiJoin(rCol, sCol); exact != 0 {
		t.Fatalf("test setup: expected empty join, got %d", exact)
	}
	rng := xrand.New(8)
	rSmp, _ := sample.WithoutReplacement(rng, rCol, 1000)
	sSmp, _ := sample.WithoutReplacement(rng, sCol, 1000)
	est, err := Estimate(kdeFor(t, rSmp), kdeFor(t, sSmp), 20000, 20000, 0, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// |R|·|S| = 4e8; anything below 1e-5 of that is "empty" for planning.
	if est > 4000 {
		t.Fatalf("disjoint-join estimate %v should be ~0", est)
	}
}

func TestBandJoinEstimateAccuracy(t *testing.T) {
	rCol := intColumn(30000, 500, 100, 9)
	sCol := intColumn(30000, 500, 100, 10)
	const band = 5
	exact := ExactBandJoin(rCol, sCol, band)

	rng := xrand.New(11)
	rSmp, _ := sample.WithoutReplacement(rng, rCol, 2000)
	sSmp, _ := sample.WithoutReplacement(rng, sCol, 2000)
	est, err := EstimateBand(kdeFor(t, rSmp), kdeFor(t, sSmp), 30000, 30000, 0, 1000, band, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := RelativeError(est, exact); relErr > 0.15 {
		t.Fatalf("band-join estimate %v vs exact %d: rel err %v", est, exact, relErr)
	}
}

func TestEstimateBandValidation(t *testing.T) {
	est := kdeFor(t, intColumn(500, 500, 100, 12))
	if _, err := EstimateBand(nil, est, 1, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("nil estimator should error")
	}
	if _, err := EstimateBand(est, est, 1, 1, 0, 1, -1, 0); err == nil {
		t.Fatal("negative band should error")
	}
	if _, err := EstimateBand(est, est, 1, 1, 1, 0, 1, 0); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(90, 100); got != 0.1 {
		t.Fatalf("RelativeError = %v", got)
	}
	if !math.IsNaN(RelativeError(5, 0)) {
		t.Fatal("zero exact should give NaN")
	}
}

// Property: the exact band join is monotone in the band width.
func TestQuickBandJoinMonotone(t *testing.T) {
	rng := xrand.New(13)
	r := make([]float64, 200)
	s := make([]float64, 200)
	for i := range r {
		r[i] = rng.Float64() * 50
		s[i] = rng.Float64() * 50
	}
	prop := func(raw uint8) bool {
		band := float64(raw) / 16
		return ExactBandJoin(r, s, band) <= ExactBandJoin(r, s, band+1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
