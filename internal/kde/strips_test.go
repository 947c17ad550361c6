package kde

import (
	"math"
	"testing"

	"selest/internal/xrand"
)

// stripTol is the agreement budget between boundary-kernel answers read
// off the reach-limited log prefixes and off the full-prefix reference.
const stripTol = 1e-12

// fullStripLogs is the full-prefix construction that newStripLogs
// replaced, kept as its reference: both prefixes run over every sample,
// taking two logarithms per sample, and the right prefix starts at index 0.
func fullStripLogs(xs []float64, lo, hi float64) *stripLogs {
	n := len(xs)
	s := &stripLogs{
		lnLo: make([]dd, n+1),
		lnHi: make([]dd, n+1),
	}
	var sLo, sHi dd
	for i, x := range xs {
		if x > lo {
			sLo = sLo.add(dd{math.Log(x - lo), 0})
		}
		if x < hi {
			sHi = sHi.add(dd{math.Log(hi - x), 0})
		}
		s.lnLo[i+1] = sLo
		s.lnHi[i+1] = sHi
	}
	return s
}

// boundaryQueries draws ranges whose endpoints crowd the strips: within
// 3h of either boundary, exactly on lo, lo+h, lo+2h and their mirrors, and
// spanning the whole domain.
func boundaryQueries(r *xrand.RNG, lo, hi, h float64, n int) []query {
	near := func() float64 {
		d := r.Float64() * 3 * h
		if r.Float64() < 0.5 {
			return math.Min(lo+d, hi)
		}
		return math.Max(hi-d, lo)
	}
	qs := make([]query, 0, n+8)
	for i := 0; i < n; i++ {
		a, b := near(), near()
		if a > b {
			a, b = b, a
		}
		qs = append(qs, query{a, b})
	}
	return append(qs,
		query{lo, lo + h}, query{lo, lo + 2*h}, query{lo + h, lo + 2*h},
		query{hi - h, hi}, query{hi - 2*h, hi}, query{hi - 2*h, hi - h},
		query{lo, hi}, query{lo - h, hi + h},
	)
}

// TestStripReachMatchesFullPrefix pins the reach-limited strip prefixes
// against the full-prefix reference: boundary-kernel answers agree within
// stripTol on data piled at a boundary, on a domain narrower than 4h
// (overlapping reaches), with no sample in reach, and with samples exactly
// on lo, hi, lo+2h and hi−2h — while the prefixes shrink to the reach.
func TestStripReachMatchesFullPrefix(t *testing.T) {
	r := xrand.New(41)
	uniform := func(n int, lo, hi float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lo + r.Float64()*(hi-lo)
		}
		return xs
	}
	piled := make([]float64, 3000)
	for i := range piled {
		piled[i] = math.Min(r.Exponential(1.0/20), 1000)
	}
	onEdges := append(uniform(500, 0, 100), 0, 0, 100, 100, 10, 10, 90, 90)
	cases := []struct {
		name    string
		samples []float64
		lo, hi  float64
		hs      []float64
		noReach bool
	}{
		{"exponential-piled-at-lo", piled, 0, 1000, []float64{0.5, 5, 40}, false},
		{"narrower-than-4h", uniform(800, 0, 10), 0, 10, []float64{2.6, 3, 4.9, 6}, false},
		{"no-sample-in-reach", uniform(800, 100, 900), 0, 1000, []float64{1e-3, 1}, true},
		{"samples-on-reach-edges", onEdges, 0, 100, []float64{5}, false},
	}
	for _, c := range cases {
		for _, h := range c.hs {
			e, err := New(c.samples, Config{Bandwidth: h, Boundary: BoundaryKernels, DomainLo: c.lo, DomainHi: c.hi})
			if err != nil {
				t.Fatalf("%s/h=%v: %v", c.name, h, err)
			}
			if e.moments == nil || e.strips == nil {
				t.Fatalf("%s/h=%v: strip closed form disabled", c.name, h)
			}
			n := len(e.sorted)
			if got := len(e.strips.lnLo) + len(e.strips.lnHi); c.noReach && got != 2 {
				t.Fatalf("%s/h=%v: %d prefix entries with no sample in reach, want 2", c.name, h, got)
			} else if 2*h < (c.hi-c.lo)/4 && got >= 2*(n+1) {
				t.Fatalf("%s/h=%v: prefixes hold %d entries, not shrunk to the reach", c.name, h, got)
			}
			ref := *e
			ref.strips = fullStripLogs(e.sorted, c.lo, c.hi)
			for _, q := range boundaryQueries(r, c.lo, c.hi, h, 400) {
				got, want := e.SelectivityUnclamped(q.A, q.B), ref.SelectivityUnclamped(q.A, q.B)
				if math.Abs(got-want) > stripTol {
					t.Fatalf("%s/h=%v: Q(%v,%v) = %v, full-prefix reference %v (diff %g)",
						c.name, h, q.A, q.B, got, want, got-want)
				}
			}
		}
	}
}
