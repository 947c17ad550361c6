package kde

import (
	"math"
	"sort"
	"testing"

	"selest/internal/kernel"
	"selest/internal/xrand"
)

// momentTol is the agreement budget between the prefix-moment closed form
// and the Θ(n) reference evaluator (the acceptance bar of the query-engine
// redesign).
const momentTol = 1e-9

// sampleCase is one sample-set shape of the moment-path corpus.
type sampleCase struct {
	name    string
	samples []float64
	lo, hi  float64
}

// momentCorpus builds the shapes the closed form must survive: smooth
// uniform data, tight clusters (huge edge windows), constant data (zero
// central moments), wide integer domains (the X³ cancellation regime), and
// offset magnitudes far from zero.
func momentCorpus(t testing.TB) []sampleCase {
	t.Helper()
	r := xrand.New(99)
	uniform := func(n int, lo, hi float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lo + r.Float64()*(hi-lo)
		}
		return xs
	}
	intAligned := func(n int, lo, hi float64) []float64 {
		xs := uniform(n, lo, hi)
		for i := range xs {
			xs[i] = math.Floor(xs[i])
		}
		return xs
	}
	clustered := func(n int, lo, hi float64) []float64 {
		centers := []float64{lo + 0.2*(hi-lo), lo + 0.21*(hi-lo), lo + 0.8*(hi-lo)}
		xs := make([]float64, n)
		for i := range xs {
			c := centers[i%len(centers)]
			x := c + (r.Float64()-0.5)*(hi-lo)*1e-3
			xs[i] = math.Min(math.Max(x, lo), hi)
		}
		return xs
	}
	constant := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	p20 := math.Exp2(20)
	p31 := math.Exp2(31)
	return []sampleCase{
		{"uniform-small", uniform(700, 0, 100), 0, 100},
		{"uniform-2^20", intAligned(1500, 0, p20), 0, p20},
		{"uniform-2^31", intAligned(1500, 0, p31), 0, p31},
		{"clustered-2^31", clustered(1200, 0, p31), 0, p31},
		{"constant", constant(500, 12345.0), 0, math.Exp2(15)},
		{"offset-1e12", uniform(800, 1e12, 1e12+4096), 1e12, 1e12 + 4096},
		{"two-points", []float64{3, 97}, 0, 100},
	}
}

// query is one range [A, B] of a test's query mix.
type query struct{ A, B float64 }

// queriesFor draws a query mix for a case: interior, boundary-hugging,
// narrower than h, inverted, and NaN.
func queriesFor(r *xrand.RNG, lo, hi, h float64, n int) []query {
	span := hi - lo
	qs := make([]query, 0, n+6)
	for i := 0; i < n; i++ {
		a := lo + (r.Float64()*1.2-0.1)*span
		w := r.Float64() * 0.3 * span
		qs = append(qs, query{a, a + w})
	}
	qs = append(qs,
		query{lo, lo + 0.01*span},                 // left boundary
		query{hi - 0.01*span, hi},                 // right boundary
		query{lo + 0.4*span, lo + 0.4*span + h/5}, // narrower than h
		query{lo + 0.7*span, lo + 0.2*span},       // inverted: must be 0
		query{math.NaN(), lo + 0.5*span},          // NaN: must be 0
		query{lo - span, hi + span},               // hull-covering
	)
	return qs
}

// TestMomentPathMatchesLinear is the core acceptance property: for every
// corpus shape and boundary mode, Selectivity (moment path), the edge scan
// and the Θ(n) reference agree within momentTol.
func TestMomentPathMatchesLinear(t *testing.T) {
	for _, sc := range momentCorpus(t) {
		r := xrand.New(7)
		span := sc.hi - sc.lo
		for _, mode := range []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels} {
			for _, hFrac := range []float64{0.003, 0.04, 0.3} {
				h := hFrac * span
				if h <= 0 {
					h = 1
				}
				e, err := New(sc.samples, Config{
					Bandwidth: h, Boundary: mode, DomainLo: sc.lo, DomainHi: sc.hi,
				})
				if err != nil {
					t.Fatalf("%s/%v/h=%v: %v", sc.name, mode, h, err)
				}
				if e.moments == nil {
					t.Fatalf("%s: moment index unexpectedly disabled", sc.name)
				}
				for _, q := range queriesFor(r, sc.lo, sc.hi, h, 60) {
					fast := e.Selectivity(q.A, q.B)
					scan := e.SelectivityEdgeScan(q.A, q.B)
					lin := e.SelectivityLinear(q.A, q.B)
					if math.Abs(fast-scan) > momentTol {
						t.Fatalf("%s/%v/h=%v: moment %v vs edge-scan %v for Q(%v,%v)",
							sc.name, mode, h, fast, scan, q.A, q.B)
					}
					if math.Abs(fast-lin) > momentTol {
						t.Fatalf("%s/%v/h=%v: moment %v vs linear %v for Q(%v,%v)",
							sc.name, mode, h, fast, lin, q.A, q.B)
					}
				}
			}
		}
	}
}

// TestMomentFallbackOnExtremeMagnitude: magnitudes whose cubes would
// overflow must disable the index, and the estimator must still answer
// (through the edge scan) in agreement with the linear reference.
func TestMomentFallbackOnExtremeMagnitude(t *testing.T) {
	samples := []float64{-2e100, -1e100, 0, 1e100, 2e100}
	e, err := New(samples, Config{Bandwidth: 5e99})
	if err != nil {
		t.Fatal(err)
	}
	if e.moments != nil {
		t.Fatal("moment index should be disabled at 1e100 magnitudes")
	}
	got := e.Selectivity(-1.5e100, 1.5e100)
	want := e.SelectivityLinear(-1.5e100, 1.5e100)
	if math.Abs(got-want) > momentTol {
		t.Fatalf("fallback disagrees with linear: %v vs %v", got, want)
	}
	// Non-polynomial kernels never build the index.
	g, err := New([]float64{1, 2, 3}, Config{Bandwidth: 1, Kernel: kernel.Gaussian{}})
	if err != nil {
		t.Fatal(err)
	}
	if g.moments != nil {
		t.Fatal("moment index requires the Epanechnikov kernel")
	}
}

// TestStripMomentMatchesLoop checks the boundary-strip closed form against
// the per-sample BoundaryStripIntegral loop directly, sweeping clip
// configurations (u1 < 0, u2 > 1, sub-strip windows, degenerate windows).
func TestStripMomentMatchesLoop(t *testing.T) {
	r := xrand.New(17)
	samples := make([]float64, 900)
	for i := range samples {
		samples[i] = math.Floor(r.Float64() * math.Exp2(22))
	}
	e, err := New(samples, Config{
		Bandwidth: math.Exp2(22) * 0.05, Boundary: BoundaryKernels,
		DomainLo: 0, DomainHi: math.Exp2(22),
	})
	if err != nil {
		t.Fatal(err)
	}
	loop := func(u1, u2 float64, left bool) float64 {
		sum := 0.0
		for _, x := range e.sorted {
			s := (x - e.lo) / e.h
			if !left {
				s = (e.hi - x) / e.h
			}
			sum += kernel.BoundaryStripIntegral(s, u1, u2)
		}
		return sum
	}
	for trial := 0; trial < 300; trial++ {
		u1 := r.Float64()*2.4 - 1.2
		u2 := u1 + r.Float64()*1.4
		for _, left := range []bool{true, false} {
			got := e.stripSumMoment(u1, u2, left)
			want := loop(u1, u2, left)
			if math.Abs(got-want) > momentTol*float64(e.n) {
				t.Fatalf("strip(left=%v, u1=%v, u2=%v): moment %v vs loop %v",
					left, u1, u2, got, want)
			}
		}
	}
}

// TestGallopMatchesBinarySearch: DensityGrid's resumable searches must
// agree with sort.SearchFloat64s from every starting position.
func TestGallopMatchesBinarySearch(t *testing.T) {
	r := xrand.New(41)
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = math.Floor(r.Float64() * 500)
	}
	sort.Float64s(xs)
	for trial := 0; trial < 2000; trial++ {
		v := -10 + r.Float64()*520
		wantGE := sort.SearchFloat64s(xs, v)
		wantGT := sort.Search(len(xs), func(i int) bool { return xs[i] > v })
		from := int(r.Uint64() % uint64(wantGE+1))
		if got := advanceGE(xs, from, v); got != wantGE {
			t.Fatalf("advanceGE(from=%d, v=%v) = %d, want %d", from, v, got, wantGE)
		}
		fromGT := int(r.Uint64() % uint64(wantGT+1))
		if got := advanceGT(xs, fromGT, v); got != wantGT {
			t.Fatalf("advanceGT(from=%d, v=%v) = %d, want %d", fromGT, v, got, wantGT)
		}
	}
}

// TestDDArithmetic pins the error-free transforms on values that defeat
// plain float64 (the classic Kahan cancellation pairs).
func TestDDArithmetic(t *testing.T) {
	// (1e16 + 1) − 1e16 == 1 exactly in dd, 0 or 2 in float64.
	s := twoSum(1e16, 1)
	d := s.sub(dd{1e16, 0})
	if d.val() != 1 {
		t.Fatalf("dd cancellation: got %v, want 1", d.val())
	}
	// twoDiff is exact: (x − c) + c == x.
	x, c := 12345678.9, 98765.4321
	y := twoDiff(x, c)
	back := y.add(dd{c, 0})
	if back.val() != x {
		t.Fatalf("twoDiff roundtrip: %v != %v", back.val(), x)
	}
	// mul carries the low-order product bits.
	p := dd{1e8 + 1, 0}.mul(dd{1e8 - 1, 0})
	if p.val() != 1e16-1 {
		t.Fatalf("dd mul: got %v, want %v", p.val(), 1e16-1)
	}
}

// FuzzMomentMatchesLinear drives the moment path against the Θ(n)
// reference with fuzzer-chosen sample shapes, bandwidths and raw query
// bits (so NaN/Inf/inverted queries are reachable).
func FuzzMomentMatchesLinear(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(20), 0.05, uint64(0), uint64(0), uint8(0))
	f.Add(uint64(2), uint16(1000), uint8(31), 0.01, math.Float64bits(1000), math.Float64bits(2000), uint8(1))
	f.Add(uint64(3), uint16(50), uint8(8), 0.5, math.Float64bits(math.NaN()), math.Float64bits(10), uint8(2))
	f.Add(uint64(4), uint16(300), uint8(15), 0.002, math.Float64bits(100), math.Float64bits(90), uint8(1))
	f.Add(uint64(5), uint16(2), uint8(12), 0.9, math.Float64bits(1), math.Float64bits(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, domPow uint8, hFrac float64, aBits, bBits uint64, modeRaw uint8) {
		if n == 0 {
			n = 1
		}
		if n > 3000 {
			n = 3000
		}
		if domPow < 4 {
			domPow = 4
		}
		if domPow > 40 {
			domPow = 40
		}
		if math.IsNaN(hFrac) || hFrac <= 0 || hFrac > 1 {
			hFrac = 0.05
		}
		span := math.Exp2(float64(domPow))
		r := xrand.New(seed | 1)
		xs := make([]float64, int(n))
		switch seed % 3 {
		case 0: // uniform integers
			for i := range xs {
				xs[i] = math.Floor(r.Float64() * span)
			}
		case 1: // tight clusters
			c1, c2 := r.Float64()*span, r.Float64()*span
			for i := range xs {
				c := c1
				if i%2 == 0 {
					c = c2
				}
				xs[i] = math.Min(math.Max(c+(r.Float64()-0.5)*span*1e-4, 0), span)
			}
		default: // constant
			v := math.Floor(r.Float64() * span)
			for i := range xs {
				xs[i] = v
			}
		}
		mode := []BoundaryMode{BoundaryNone, BoundaryReflect, BoundaryKernels}[modeRaw%3]
		h := hFrac * span
		e, err := New(xs, Config{Bandwidth: h, Boundary: mode, DomainLo: 0, DomainHi: span})
		if err != nil {
			t.Skip()
		}
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			// ±Inf queries are legal but the Θ(n) reference evaluates CDF at
			// ±Inf fine; keep them.
		}
		fast := e.Selectivity(a, b)
		lin := e.SelectivityLinear(a, b)
		scan := e.SelectivityEdgeScan(a, b)
		if math.IsNaN(a) || math.IsNaN(b) || b < a {
			if fast != 0 || lin != 0 || scan != 0 {
				t.Fatalf("degenerate Q(%v,%v) must be 0: fast=%v lin=%v scan=%v", a, b, fast, lin, scan)
			}
			return
		}
		if math.Abs(fast-lin) > momentTol {
			t.Fatalf("mode=%v n=%d dom=2^%d h=%v: moment %v vs linear %v for Q(%v,%v)",
				mode, n, domPow, h, fast, lin, a, b)
		}
		if math.Abs(fast-scan) > momentTol {
			t.Fatalf("mode=%v n=%d dom=2^%d h=%v: moment %v vs edge-scan %v for Q(%v,%v)",
				mode, n, domPow, h, fast, scan, a, b)
		}
		if fast < 0 || fast > 1 {
			t.Fatalf("selectivity %v outside [0,1]", fast)
		}
	})
}

// fullMomentIndex is the per-sample prefix layout the block index
// replaced, kept as its reference: p[i] holds the centered moments of
// xs[:i] for every i, and each closed form runs over its whole range.
type fullMomentIndex struct {
	c float64
	p []moments3
}

func newFullMomentIndex(xs []float64, c float64) *fullMomentIndex {
	f := &fullMomentIndex{c: c, p: make([]moments3, len(xs)+1)}
	var s moments3
	for i, x := range xs {
		y := twoDiff(x, c)
		y2 := y.mul(y)
		s.s1 = s.s1.add(y)
		s.s2 = s.s2.add(y2)
		s.s3 = s.s3.add(y2.mul(y))
		f.p[i+1] = s
	}
	return f
}

func (f *fullMomentIndex) span(l, r int) (s1, s2, s3 dd) {
	a, b := f.p[l], f.p[r]
	return b.s1.sub(a.s1), b.s2.sub(a.s2), b.s3.sub(a.s3)
}

// cdf is the in-window closed form over [l, r).
func (f *fullMomentIndex) cdf(l, r int, y, h float64) float64 {
	if r <= l {
		return 0
	}
	kf := float64(r - l)
	s1, s2, s3 := f.span(l, r)
	z := twoDiff(y, f.c)
	sumU := z.mulF(kf).sub(s1)
	z2 := z.mul(z)
	sumU3 := z2.mul(z).mulF(kf).sub(z2.mul(s1).mulF(3)).add(z.mul(s2).mulF(3)).sub(s3)
	ih := 1 / h
	return 0.5*kf + 0.25*ih*(3*sumU.val()-sumU3.val()*ih*ih)
}

// density is the kernel-sum closed form over [l, r).
func (f *fullMomentIndex) density(l, r int, x, h float64) float64 {
	if r <= l {
		return 0
	}
	kf := float64(r - l)
	s1, s2, _ := f.span(l, r)
	z := twoDiff(x, f.c)
	q := z.mul(z).mulF(kf).sub(z.mul(s1).mulF(2)).add(s2)
	ih := 1 / h
	return 0.75 * (kf - q.val()*ih*ih)
}

// stripG is the strip polynomial ΣG(v; s) over [l, r) from the full
// prefixes.
func (f *fullMomentIndex) stripG(l, r int, v, lo, hi, h float64, left bool) float64 {
	if r <= l {
		return 0
	}
	kf := float64(r - l)
	s1, s2, _ := f.span(l, r)
	var t1, t2 dd
	if left {
		d := twoDiff(f.c, lo)
		t1 = s1.add(d.mulF(kf))
		t2 = s2.add(d.mul(s1).mulF(2)).add(d.mul(d).mulF(kf))
	} else {
		d := twoDiff(hi, f.c)
		t1 = d.mulF(kf).sub(s1)
		t2 = d.mul(d).mulF(kf).sub(d.mul(s1).mulF(2)).add(s2)
	}
	iv, ihs := 1/v, 1/h
	return kf*(-3*math.Log(v)-6*iv) + t1.val()*ihs*iv*(6*iv-12) + t2.val()*ihs*ihs*(3*iv*iv)
}

// blockIndexTol is the agreement budget, on the selectivity scale (a sum
// over samples divided by n), between the block index and the
// full-prefix reference.
const blockIndexTol = 1e-12

// blockProbes returns query points that put window ends on, just inside
// and just outside block boundaries (y = x ± h at samples around every
// block edge, so integer data puts samples exactly on the window edges),
// at samples themselves, and at random.
func blockProbes(r *xrand.RNG, xs []float64, h float64, random int) []float64 {
	n := len(xs)
	var ys []float64
	at := func(i int) {
		if i >= 0 && i < n {
			ys = append(ys, xs[i]-h, xs[i], xs[i]+h)
		}
	}
	step := 1
	if n > 4096 {
		step = n / 512 &^ (blockSize - 1)
	}
	for b := 0; b <= n; b += blockSize * step {
		at(b - 1)
		at(b)
		at(b + 1)
	}
	at(n - 1)
	lo, hi := xs[0]-2*h, xs[n-1]+2*h
	for i := 0; i < random; i++ {
		ys = append(ys, lo+r.Float64()*(hi-lo))
	}
	return ys
}

// TestBlockIndexMatchesFullPrefix holds every consumer of the block
// index — the window CDF sum behind single queries,
// the clipped range sum behind beta kernels and the boundary-strip
// polynomial — within blockIndexTol of the full-prefix reference, and
// holds the kernel sum behind DensityGrid and the DPI pilots and the
// totals behind MomentSummary bit-identical to it, on sample sizes
// around one block and up to 2^18, on integer data over [0, 2^31),
// real-valued data and heavily tied data.
func TestBlockIndexMatchesFullPrefix(t *testing.T) {
	r := xrand.New(2024)
	p31 := math.Exp2(31)
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"int-2^31", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Floor(r.Float64() * p31)
			}
			return xs
		}},
		{"real", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 1e6 + r.Normal()*250
			}
			return xs
		}},
		{"tied", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Uint64()%12) * 1e7
			}
			return xs
		}},
	}
	worst := 0.0
	for _, sh := range shapes {
		for _, n := range []int{1, 7, 8, 9, 2000, 1 << 18} {
			xs := sh.gen(n)
			sort.Float64s(xs)
			m := newMomentIndex(xs)
			if m == nil {
				t.Fatalf("%s/n=%d: index disabled", sh.name, n)
			}
			if want := (n+blockSize-1)/blockSize + 1; len(m.blocks) != want {
				t.Fatalf("%s/n=%d: %d block entries, want %d", sh.name, n, len(m.blocks), want)
			}
			ref := newFullMomentIndex(xs, m.c)
			nf := float64(n)
			check := func(what string, got, want float64) {
				t.Helper()
				d := math.Abs(got-want) / nf
				worst = math.Max(worst, d)
				if !(d <= blockIndexTol) {
					t.Fatalf("%s/n=%d: %s = %v, full-prefix reference %v (diff %g)", sh.name, n, what, got, want, d)
				}
			}
			span := math.Max(xs[n-1]-xs[0], 1)
			// From a few samples per window (windows inside one block) to
			// windows spanning most of the data; integer h keeps x ± h exact.
			for _, hFrac := range []float64{2 / nf, 0.01, 0.3} {
				h := math.Max(math.Floor(span*hFrac), 1)
				random := 40
				if n > 4096 {
					random = 200
				}
				for _, y := range blockProbes(r, xs, h, random) {
					l, rr := m.window(y, h)
					check("windowSum", m.windowSum(l, rr, y, h), float64(l)+ref.cdf(l, rr, y, h))
					if got, want := m.densitySum(l, rr, y, h), ref.density(l, rr, y, h); got != want {
						t.Fatalf("%s/n=%d: densitySum = %v, full-prefix reference %v: want bit-identical", sh.name, n, got, want)
					}
					for _, rg := range [][2]int{{0, n}, {1, n - 1}, {blockSize, n - blockSize}, {n / 3, 2 * n / 3}} {
						lo, hi := rg[0], rg[1]
						wl, wr := min(max(l, lo), hi), min(rr, hi)
						want := 0.0
						if hi > lo {
							want = float64(wl-lo) + ref.cdf(wl, wr, y, h)
						}
						check("rangeCdfSum", m.rangeCdfSum(lo, hi, y, h), want)
					}
				}
				// Strip sums over [0, j) (left) and [j, n) (right) inside the
				// 2h reach the strip closed form is taken over, with j on,
				// beside and between block boundaries.
				e := &Estimator{lo: xs[0] - h/3, hi: xs[n-1] + h/3, h: h}
				loEnd := sort.Search(n, func(i int) bool { return xs[i] > e.lo+2*h })
				hiStart := sort.SearchFloat64s(xs, e.hi-2*h)
				for i := 0; i <= n; i += max(1, n/97) {
					for _, j := range []int{i, i &^ (blockSize - 1), i | (blockSize - 1)} {
						for _, v := range []float64{1, 1.25, 2} {
							if j <= loEnd {
								check("stripGSum left", e.stripGSum(m, 0, j, v, true), ref.stripG(0, j, v, e.lo, e.hi, h, true))
							}
							if j >= hiStart && j <= n {
								check("stripGSum right", e.stripGSum(m, j, n, v, false), ref.stripG(j, n, v, e.lo, e.hi, h, false))
							}
						}
					}
				}
			}
			ctx, err := NewFitContextSorted(xs)
			if err != nil {
				t.Fatal(err)
			}
			mean, variance, ok := ctx.MomentSummary()
			d := ref.p[n].s1.val() / nf
			if !ok || mean != m.c+d || variance != math.Max(ref.p[n].s2.val()/nf-d*d, 0) {
				t.Fatalf("%s/n=%d: MomentSummary = (%v, %v, %v), reference (%v, %v)", sh.name, n, mean, variance, ok, m.c+d, ref.p[n].s2.val()/nf-d*d)
			}
		}
	}
	t.Logf("largest difference from the full-prefix reference: %g", worst)
}
