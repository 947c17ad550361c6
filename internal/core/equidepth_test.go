package core

import (
	"math"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/dataset"
	"selest/internal/histogram"
	"selest/internal/xrand"
)

// histCase is one sample shape of the equi-depth corpus.
type histCase struct {
	name    string
	samples []float64
	lo, hi  float64
}

// equiDepthCorpus gathers the histogram tests' sample shapes — balanced
// normal data, a 90% point mass, the invariant-property normal — plus
// integer-aligned uniform data and the service benchmark's normal,
// exponential and uniform files.
func equiDepthCorpus() []histCase {
	r := xrand.New(3)
	normal := make([]float64, 10000)
	for i := range normal {
		normal[i] = r.Normal()
	}
	duplicates := make([]float64, 1000)
	for i := range duplicates {
		duplicates[i] = 5
		if i >= 900 {
			duplicates[i] = float64(i)
		}
	}
	shifted := make([]float64, 800)
	for i := range shifted {
		shifted[i] = r.Normal()*15 + 50
	}
	corpus := []histCase{
		{"normal", normal, -10, 10},
		{"point-mass", duplicates, 0, 1000},
		{"normal-50-15", shifted, -50, 150},
		{"uniform-int", testSamples(5000, 9), 0, 1000},
	}
	for _, f := range []*dataset.File{
		dataset.NormalFile(16, 20000, 1),
		dataset.ExponentialFile(16, 20000, 2),
		dataset.UniformFile(16, 20000, 3),
	} {
		lo, hi := f.Domain()
		corpus = append(corpus, histCase{f.Name, f.Records, lo, hi})
	}
	return corpus
}

// TestEquiDepthBuildMatchesTwoSortPath pins the single-sort equi-depth
// build: core.Build reads the bin-width rule's quartiles from the copy it
// sorts for the boundaries, and must produce the same bounds and counts
// as deriving the width from the unsorted sample (its own sort) and then
// building the histogram (a second sort), under both bin-width rules.
func TestEquiDepthBuildMatchesTwoSortPath(t *testing.T) {
	for _, c := range equiDepthCorpus() {
		for _, rule := range []BandwidthRule{NormalScale, DPI} {
			var (
				width float64
				err   error
			)
			if rule == NormalScale {
				width, err = bandwidth.NormalScaleBinWidth(c.samples)
			} else {
				width, err = bandwidth.DPIBinWidth(c.samples, 2, c.lo, c.hi)
			}
			if err != nil {
				t.Fatalf("%s/%s: width: %v", c.name, rule, err)
			}
			want, err := histogram.BuildEquiDepth(c.samples, bandwidth.BinsForWidth(width, c.lo, c.hi, 8192))
			if err != nil {
				t.Fatalf("%s/%s: two-sort build: %v", c.name, rule, err)
			}
			before := append([]float64(nil), c.samples...)
			est, err := Build(c.samples, Options{Method: EquiDepth, Rule: rule, DomainLo: c.lo, DomainHi: c.hi})
			if err != nil {
				t.Fatalf("%s/%s: core.Build: %v", c.name, rule, err)
			}
			for i := range before {
				if math.Float64bits(before[i]) != math.Float64bits(c.samples[i]) {
					t.Fatalf("%s/%s: core.Build reordered the caller's sample at %d", c.name, rule, i)
				}
			}
			got := est.(*histogram.Histogram)
			wb, gb := want.Bounds(), got.Bounds()
			if len(wb) != len(gb) {
				t.Fatalf("%s/%s: %d bounds, two-sort path %d", c.name, rule, len(gb), len(wb))
			}
			for i := range wb {
				if math.Float64bits(wb[i]) != math.Float64bits(gb[i]) {
					t.Fatalf("%s/%s: bound %d = %v, two-sort path %v", c.name, rule, i, gb[i], wb[i])
				}
			}
			wc, gc := want.Counts(), got.Counts()
			for i := range wc {
				if wc[i] != gc[i] {
					t.Fatalf("%s/%s: bin %d count %d, two-sort path %d", c.name, rule, i, gc[i], wc[i])
				}
			}
		}
	}
}
