package sample

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"selest/internal/xrand"
)

func TestWithoutReplacementValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := WithoutReplacement(r, []float64{1, 2}, 3); err == nil {
		t.Fatal("oversized sample should error")
	}
	if _, err := WithoutReplacement(r, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative sample size should error")
	}
	s, err := WithoutReplacement(r, []float64{1, 2}, 0)
	if err != nil || len(s) != 0 {
		t.Fatalf("empty sample: %v, %v", s, err)
	}
}

func TestWithoutReplacementNoDuplicates(t *testing.T) {
	r := xrand.New(2)
	pop := make([]float64, 1000)
	for i := range pop {
		pop[i] = float64(i) // all distinct
	}
	s, err := WithoutReplacement(r, pop, 500)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool, len(s))
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate sample value %v", v)
		}
		seen[v] = true
	}
}

func TestWithoutReplacementDoesNotMutate(t *testing.T) {
	r := xrand.New(3)
	pop := []float64{9, 8, 7, 6, 5}
	want := append([]float64(nil), pop...)
	if _, err := WithoutReplacement(r, pop, 3); err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		if pop[i] != want[i] {
			t.Fatal("population mutated")
		}
	}
}

func TestWithoutReplacementUniformity(t *testing.T) {
	// Each of 10 population elements should appear in a size-5 sample with
	// probability 1/2.
	r := xrand.New(4)
	pop := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	counts := make([]int, 10)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		s, err := WithoutReplacement(r, pop, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s {
			counts[int(v)]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.5) > 0.02 {
			t.Fatalf("element %d sampled with frequency %v, want ~0.5", i, frac)
		}
	}
}

func TestReservoirFillsToCapacity(t *testing.T) {
	rv := NewReservoir(xrand.New(5), 10)
	for i := 0; i < 5; i++ {
		rv.Add(float64(i))
	}
	if rv.Len() != 5 || rv.Seen() != 5 {
		t.Fatalf("Len/Seen = %d/%d", rv.Len(), rv.Seen())
	}
	for i := 5; i < 100; i++ {
		rv.Add(float64(i))
	}
	if rv.Len() != 10 || rv.Seen() != 100 {
		t.Fatalf("after stream: Len/Seen = %d/%d", rv.Len(), rv.Seen())
	}
}

// TestReservoirFillsExactlyAtCapacity pins the trigger property the
// online estimator's first refit relies on: the reservoir keeps every
// element and evicts none while filling, reaches capacity exactly on
// the capacity-th element, and then stays full.
func TestReservoirFillsExactlyAtCapacity(t *testing.T) {
	for _, capacity := range []int{1, 5, 64, 97, 100, 2000} {
		rv := NewReservoir(xrand.New(uint64(capacity)), capacity)
		for i := 0; i < capacity-1; i++ {
			if kept, evicted := rv.AddBatch([]float64{float64(i)}); kept != 1 || evicted != 0 {
				t.Fatalf("cap %d: element %d while filling: kept %d, evicted %d", capacity, i, kept, evicted)
			}
		}
		if rv.Len() != capacity-1 {
			t.Fatalf("cap %d: Len = %d before the last fill element", capacity, rv.Len())
		}
		if !rv.Add(float64(capacity)) {
			t.Fatalf("cap %d: the capacity-th element was not kept", capacity)
		}
		if rv.Len() != capacity {
			t.Fatalf("cap %d: Len = %d at capacity", capacity, rv.Len())
		}
		// Once full, Len stays pinned at capacity.
		for i := 0; i < 3*capacity; i++ {
			rv.Add(float64(i))
		}
		if rv.Len() != capacity || rv.Seen() != 4*capacity {
			t.Fatalf("cap %d: Len/Seen = %d/%d after overflow", capacity, rv.Len(), rv.Seen())
		}
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Stream 0..99 through capacity-10 reservoirs; every element should be
	// retained with probability ~0.1.
	r := xrand.New(6)
	counts := make([]int, 100)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		rv := NewReservoir(r, 10)
		for i := 0; i < 100; i++ {
			rv.Add(float64(i))
		}
		for _, v := range rv.Snapshot() {
			counts[int(v)]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.1) > 0.015 {
			t.Fatalf("element %d retained with frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestReservoirSampleIsCopy(t *testing.T) {
	rv := NewReservoir(xrand.New(7), 3)
	rv.Add(1)
	s := rv.Snapshot()
	s[0] = 99
	if rv.Snapshot()[0] == 99 {
		t.Fatal("Snapshot must return a copy")
	}
}

func TestReservoirPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 should panic")
		}
	}()
	NewReservoir(xrand.New(1), 0)
}

func TestPureEstimator(t *testing.T) {
	p := NewPureEstimator([]float64{1, 2, 2, 3, 5})
	cases := []struct {
		a, b, want float64
	}{
		{2, 2, 0.4},
		{1, 5, 1},
		{0, 0.5, 0},
		{4, 1, 0}, // inverted
		{2.5, 4.9, 0.2},
	}
	for _, tc := range cases {
		if got := p.Selectivity(tc.a, tc.b); got != tc.want {
			t.Errorf("Selectivity(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if p.SampleSize() != 5 {
		t.Fatalf("SampleSize = %d", p.SampleSize())
	}
	if p.Name() != "sampling" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPureEstimatorEmpty(t *testing.T) {
	p := NewPureEstimator(nil)
	if p.Selectivity(0, 1) != 0 {
		t.Fatal("empty estimator should return 0")
	}
}

func TestPureEstimatorConverges(t *testing.T) {
	// Consistency: error shrinks as the sample grows (paper §2).
	r := xrand.New(8)
	pop := make([]float64, 100000)
	for i := range pop {
		pop[i] = r.Float64()
	}
	trueSel := 0.0
	for _, v := range pop {
		if v >= 0.3 && v <= 0.4 {
			trueSel++
		}
	}
	trueSel /= float64(len(pop))

	errAt := func(n int) float64 {
		s, err := WithoutReplacement(r, pop, n)
		if err != nil {
			t.Fatal(err)
		}
		// Average over several draws to smooth sampling noise.
		total := 0.0
		const reps = 30
		for rep := 0; rep < reps; rep++ {
			s, _ = WithoutReplacement(r, pop, n)
			slices.Sort(s)
			total += math.Abs(NewPureEstimator(s).Selectivity(0.3, 0.4) - trueSel)
		}
		return total / reps
	}
	small, large := errAt(100), errAt(10000)
	if large >= small {
		t.Fatalf("error did not shrink with sample size: n=100 err=%v, n=10000 err=%v", small, large)
	}
}

// Property: pure-sampling selectivity is within [0,1] and additive over a
// partition of the range.
func TestQuickPureEstimatorBounds(t *testing.T) {
	r := xrand.New(9)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.Normal()
	}
	slices.Sort(samples)
	p := NewPureEstimator(samples)
	prop := func(seed uint8) bool {
		a := float64(seed)/32 - 4
		b := a + 1.3
		m := a + 0.4
		whole := p.Selectivity(a, b)
		parts := p.Selectivity(a, m) + p.Selectivity(math.Nextafter(m, math.Inf(1)), b)
		return whole >= 0 && whole <= 1 && math.Abs(whole-parts) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
