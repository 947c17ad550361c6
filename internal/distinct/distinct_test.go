package distinct

import (
	"math"
	"testing"

	"selest/internal/sample"
	"selest/internal/xrand"
)

func TestProfileValidation(t *testing.T) {
	if _, err := Profile(nil); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := Profile([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN should error")
	}
}

func TestProfileCounts(t *testing.T) {
	p, err := Profile([]float64{1, 1, 1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.D != 3 || p.N != 6 {
		t.Fatalf("D/N = %d/%d", p.D, p.N)
	}
	if p.F[1] != 1 || p.F[2] != 1 || p.F[3] != 1 {
		t.Fatalf("F = %v", p.F)
	}
}

func TestFullScanIsExact(t *testing.T) {
	// Sample == table: GEE returns the true distinct count.
	vals := []float64{1, 2, 2, 3, 3, 3}
	p, err := Profile(vals)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := p.GEE(len(vals)); g != 3 {
		t.Fatalf("GEE full scan = %v", g)
	}
}

func TestEstimatorsOnUniformDuplicates(t *testing.T) {
	// Population: 1000 distinct values, each duplicated 100 times.
	pop := make([]float64, 100000)
	for i := range pop {
		pop[i] = float64(i % 1000)
	}
	r := xrand.New(1)
	smp, err := sample.WithoutReplacement(r, pop, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Profile(smp)
	if err != nil {
		t.Fatal(err)
	}
	const truth = 1000.0
	gee, err := p.GEE(len(pop))
	if err != nil {
		t.Fatal(err)
	}
	// GEE trades accuracy here for its worst-case guarantee: it must stay
	// within its √(N/n) ratio bound of the truth.
	bound := math.Sqrt(float64(len(pop)) / float64(p.N))
	if ratio := math.Max(gee/truth, truth/gee); ratio > bound {
		t.Fatalf("GEE = %v: ratio error %v beyond guarantee %v", gee, ratio, bound)
	}
}

func TestGEERatioGuarantee(t *testing.T) {
	// Population of 100k mostly-distinct values (the paper's large-domain
	// regime): a 2k sample sees almost only singletons. This is GEE's
	// provable worst case — no sampling estimator can beat a √(N/n) ratio
	// error here — so the test asserts the guarantee itself: the estimate
	// stays within a √(N/n) factor of the truth (with slack for sampling
	// noise), and lifts far above the naive sample-distinct count.
	r := xrand.New(2)
	pop := make([]float64, 100000)
	seen := make(map[float64]bool)
	for i := range pop {
		pop[i] = math.Floor(r.Float64() * 1e9)
		seen[pop[i]] = true
	}
	truth := float64(len(seen))
	smp, err := sample.WithoutReplacement(r, pop, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Profile(smp)
	if err != nil {
		t.Fatal(err)
	}
	gee, err := p.GEE(len(pop))
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Sqrt(float64(len(pop)) / float64(p.N))
	if ratio := truth / gee; ratio > bound*1.1 {
		t.Fatalf("GEE = %v: ratio error %v exceeds the √(N/n) guarantee %v", gee, ratio, bound)
	}
	if gee < 5*float64(p.D) {
		t.Fatalf("GEE = %v did not extrapolate beyond the sample-distinct count %d", gee, p.D)
	}
}

func TestGEEBounds(t *testing.T) {
	p, err := Profile([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.GEE(2); err == nil {
		t.Fatal("table smaller than sample should error")
	}
	// Estimate clamps to the table size.
	gee, err := p.GEE(3)
	if err != nil {
		t.Fatal(err)
	}
	if gee != 3 {
		t.Fatalf("GEE = %v, want clamp at 3", gee)
	}
}

func TestEstimatorComparisonPrintout(t *testing.T) {
	// Not an assertion-heavy test: exercises GEE on a skewed population
	// and checks ordering sanity (between sample-distinct and table size).
	r := xrand.New(3)
	z := xrand.NewZipf(r, 1.3, 1, 49999)
	pop := make([]float64, 200000)
	for i := range pop {
		pop[i] = float64(z.Uint64())
	}
	smp, err := sample.WithoutReplacement(r, pop, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Profile(smp)
	if err != nil {
		t.Fatal(err)
	}
	gee, err := p.GEE(len(pop))
	if err != nil {
		t.Fatal(err)
	}
	if gee < float64(p.D) || gee > float64(len(pop)) {
		t.Fatalf("gee = %v outside [%d, %d]", gee, p.D, len(pop))
	}
}
