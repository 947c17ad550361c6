package fsort

import (
	"math"
	"sort"
	"testing"

	"selest/internal/xrand"
)

// checkMatchesSort pins Float64s to sort.Float64s: identical multiset in
// identical order (bit-for-bit, except that -0/+0 and duplicate values
// are interchangeable — which == treats as equal anyway).
func checkMatchesSort(t *testing.T, xs []float64) {
	t.Helper()
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	got := append([]float64(nil), xs...)
	Float64s(got)
	if len(got) != len(want) {
		t.Fatalf("length changed: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("index %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFloat64sMatchesSort(t *testing.T) {
	r := xrand.New(1)
	cases := map[string][]float64{
		"empty":  {},
		"single": {3.5},
		"small":  {5, -2, 0, 11, -7, 3, 3, 1},
	}

	uniform := make([]float64, 10_000)
	for i := range uniform {
		uniform[i] = (r.Float64() - 0.5) * 2e6
	}
	cases["uniform"] = uniform

	// Limited-range data: high key bytes are constant, exercising the
	// skipped-pass path.
	narrow := make([]float64, 5_000)
	for i := range narrow {
		narrow[i] = 1e5 + r.Float64()
	}
	cases["narrow"] = narrow

	dups := make([]float64, 4_000)
	for i := range dups {
		dups[i] = float64(i % 17)
	}
	cases["duplicates"] = dups

	sortedIn := append([]float64(nil), uniform...)
	sort.Float64s(sortedIn)
	cases["already-sorted"] = sortedIn

	reversed := make([]float64, len(sortedIn))
	for i, x := range sortedIn {
		reversed[len(reversed)-1-i] = x
	}
	cases["reversed"] = reversed

	specials := make([]float64, 0, 2_000)
	for i := 0; i < 1_990; i++ {
		specials = append(specials, (r.Float64()-0.5)*1e300)
	}
	specials = append(specials, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1e-300, -1e-300)
	cases["specials"] = specials

	nans := append([]float64(nil), uniform[:1000]...)
	nans = append(nans, math.NaN(), math.NaN())
	cases["nan-fallback"] = nans

	for name, xs := range cases {
		t.Run(name, func(t *testing.T) { checkMatchesSort(t, xs) })
	}
}

func FuzzFloat64s(f *testing.F) {
	f.Add(uint64(7), 1000)
	f.Add(uint64(42), 300)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 20_000 {
			t.Skip()
		}
		r := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			// Bit-pattern-random floats: covers denormals, infinities,
			// and wildly mixed magnitudes. NaN patterns are skipped so
			// the radix path (not the fallback) is what's fuzzed.
			x := math.Float64frombits(r.Uint64())
			if math.IsNaN(x) {
				x = r.Float64()
			}
			xs[i] = x
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		Float64s(xs)
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("index %d: got %v, want %v", i, xs[i], want[i])
			}
		}
	})
}

func BenchmarkFitSortRadix(b *testing.B) {
	r := xrand.New(3)
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = r.Float64() * 1e6
	}
	scratch := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, xs)
		Float64s(scratch)
	}
}

func BenchmarkFitSortStdlib(b *testing.B) {
	r := xrand.New(3)
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = r.Float64() * 1e6
	}
	scratch := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, xs)
		sort.Float64s(scratch)
	}
}

// radixOrder returns xs in radix-key order by the radix path itself, the
// reference for the bit-exact order Float64s promises on NaN-free input.
func radixOrder(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	if len(out) > 0 {
		radixSortFloat64s(out)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloat64sKeyOrder pins the order Float64s returns on NaN-free input
// to the radix path's bit for bit, at every length: −0 before +0 on the
// comparison-sort path for short slices too, and an input that is sorted
// as floats but puts +0 before −0 is not mistaken for already sorted.
func TestFloat64sKeyOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	long := make([]float64, 0, 2*radixMin)
	for i := 0; i < radixMin; i++ {
		long = append(long, float64(i-radixMin))
	}
	long = append(long, 0, negZero, 0, negZero)
	for i := 0; i < radixMin; i++ {
		long = append(long, float64(i+1))
	}
	r := xrand.New(9)
	mixed := make([]float64, 300)
	for i := range mixed {
		mixed[i] = float64(r.Intn(7) - 3)
		if mixed[i] == 0 && r.Intn(2) == 0 {
			mixed[i] = negZero
		}
	}
	for name, xs := range map[string][]float64{
		"pair":              {0, negZero},
		"short-zeros":       {3, 0, -1, negZero, 0, negZero, 2},
		"float-sorted-long": long,
		"mixed-zeros":       mixed,
		"short-mixed-zeros": mixed[:40],
	} {
		got := append([]float64(nil), xs...)
		Float64s(got)
		if want := radixOrder(xs); !sameBits(got, want) {
			t.Fatalf("%s: got %v, want the radix order %v", name, got, want)
		}
	}
}

// TestFloat64sSortedInputUntouched pins the sorted-input fast path: a
// slice already in key order is left as it is, with one scan and no
// allocation — what a refit's sorted sample costs core.Build's sort.
func TestFloat64sSortedInputUntouched(t *testing.T) {
	r := xrand.New(4)
	for _, n := range []int{10, 1 << 12} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round((r.Float64() - 0.5) * 100)
		}
		xs = append(xs, math.Inf(-1), math.Copysign(0, -1), math.Inf(1))
		Float64s(xs)
		want := append([]float64(nil), xs...)
		if allocs := testing.AllocsPerRun(10, func() { Float64s(xs) }); allocs != 0 {
			t.Fatalf("n=%d: sorted input cost %v allocs, want 0", n, allocs)
		}
		if !sameBits(xs, want) {
			t.Fatalf("n=%d: sorted input was reordered", n)
		}
	}
}

// TestFloat64sNaNMatchesSort pins the NaN fallback on inputs whose keys
// are otherwise in order: a +NaN keys above +Inf and a −NaN below −Inf,
// yet sort.Float64s puts every NaN first, so the key-order check must
// not accept them.
func TestFloat64sNaNMatchesSort(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for _, n := range []int{8, 1000} {
		xs := []float64{negNaN}
		for i := 0; i < n; i++ {
			xs = append(xs, float64(i))
		}
		xs = append(xs, math.Inf(1), math.NaN())
		checkMatchesSort(t, xs)
		got := append([]float64(nil), xs...)
		Float64s(got)
		if !math.IsNaN(got[0]) || !math.IsNaN(got[1]) || got[2] != 0 {
			t.Fatalf("n=%d: NaNs not first: %v", n, got[:3])
		}
	}
}

// TestRadixSortEveryPassCount runs the radix path on keys that vary in
// exactly their low k bytes, k = 1..8, so the last of its k passes
// leaves the sorted keys in the slice itself or in the scratch buffer,
// and pins both against sort.Float64s. It also pins the path's one
// allocation: the scratch buffer the passes ping-pong with.
func TestRadixSortEveryPassCount(t *testing.T) {
	r := xrand.New(12)
	for k := 1; k <= 8; k++ {
		src := make([]float64, 4*radixMin)
		for i := range src {
			bits := 0x40<<56 | r.Uint64()>>(64-8*k)
			if k == 8 {
				bits = r.Uint64()
			}
			if x := math.Float64frombits(bits); !math.IsNaN(x) {
				src[i] = x
			}
		}
		checkMatchesSort(t, src)
		xs := make([]float64, len(src))
		if allocs := testing.AllocsPerRun(5, func() {
			copy(xs, src)
			Float64s(xs)
		}); allocs != 1 {
			t.Fatalf("k=%d: radix sort made %v allocations, want 1", k, allocs)
		}
	}
}
