package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"selest/internal/bandwidth"
	"selest/internal/dataset"
	"selest/internal/fsort"
	"selest/internal/histogram"
	"selest/internal/kde"
	"selest/internal/sample"
	"selest/internal/stats"
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
// build: core.Build sorts one copy and reads the bin-width rule's
// quartiles and the histogram's boundaries from it, and must produce the
// same bounds and counts as the rule and the histogram each sorting a
// copy of their own, under both bin-width rules, without reordering the
// caller's sample.
func TestEquiDepthBuildMatchesTwoSortPath(t *testing.T) {
	sortedCopy := func(xs []float64) []float64 {
		s := append([]float64(nil), xs...)
		fsort.Float64s(s)
		return s
	}
	for _, c := range equiDepthCorpus() {
		for _, rule := range []BandwidthRule{NormalScale, DPI} {
			var (
				width float64
				err   error
			)
			if rule == NormalScale {
				width, err = bandwidth.NormalScaleBinWidthSorted(sortedCopy(c.samples))
			} else {
				var ctx *kde.FitContext
				if ctx, err = kde.NewFitContext(c.samples); err == nil {
					width, err = bandwidth.DPIBinWidthContext(ctx, 2, c.lo, c.hi)
				}
			}
			if err != nil {
				t.Fatalf("%s/%s: width: %v", c.name, rule, err)
			}
			want, err := histogram.BuildEquiDepth(sortedCopy(c.samples), bandwidth.BinsForWidth(width, c.lo, c.hi, 8192))
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
			checkSameHistogram(t, fmt.Sprintf("%s/%s: two-sort path", c.name, rule), est.(*histogram.Histogram), want)
		}
	}
}

// checkSameHistogram pins got to want field by field: reflect.DeepEqual
// reads the unexported bounds, bin counts, kind and sample size.
func checkSameHistogram(t *testing.T, label string, got, want *histogram.Histogram) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: histogram %+v, want %+v", label, *got, *want)
	}
}

// TestEquiDepthBuildSortedInput pins the one numeric consequence of
// sorting at Build's door: the normal-scale bin width sums the standard
// deviation in sorted order, where the rule used to sum it in the
// caller's (reservoir) order. That may move the width's last bits, but
// the bin count, bounds and counts must not move. Besides the corpus
// above it covers the eight attribute streams of the repository
// benchmark's ingest-refit workload (perfbench/workload.go), each as the
// set-up ingest leaves its 2^18-value reservoir (the stream's first
// 2^18 values) and after the rest of the stream has passed through it.
func TestEquiDepthBuildSortedInput(t *testing.T) {
	const reservoir = 1 << 18
	corpus := equiDepthCorpus()
	gens := []func(p, n int, seed uint64) *dataset.File{dataset.NormalFile, dataset.ExponentialFile, dataset.UniformFile}
	for k := 0; k < 8; k++ {
		f := gens[k%len(gens)](20-5*(k/4), 2*reservoir, uint64(k)*7919+1)
		lo, hi := f.Domain()
		rv := sample.NewReservoir(xrand.New(uint64(k)+1), reservoir)
		rv.AddBatch(f.Records)
		corpus = append(corpus,
			histCase{fmt.Sprintf("ingest-refit/a%d/set-up", k), f.Records[:reservoir], lo, hi},
			histCase{fmt.Sprintf("ingest-refit/a%d/passed", k), rv.Snapshot(), lo, hi})
	}
	for _, c := range corpus {
		sorted := append([]float64(nil), c.samples...)
		fsort.Float64s(sorted)
		// The scale as summed in the caller's order: min(sd, IQR/1.348),
		// falling back to whichever estimate is positive.
		s := stats.StdDev(c.samples)
		if q := (stats.QuantileSorted(sorted, 0.75) - stats.QuantileSorted(sorted, 0.25)) / 1.348; q > 0 && !(s > 0 && s <= q) {
			s = q
		}
		width := math.Cbrt(24*math.SqrtPi) * s * math.Pow(float64(len(c.samples)), -1.0/3.0)
		want, err := histogram.BuildEquiDepth(sorted, bandwidth.BinsForWidth(width, c.lo, c.hi, 8192))
		if err != nil {
			t.Fatalf("%s: caller-order width: %v", c.name, err)
		}
		got, err := Build(c.samples, Options{Method: EquiDepth, Rule: NormalScale, DomainLo: c.lo, DomainHi: c.hi})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkSameHistogram(t, c.name+": sorted-order scale", got.(*histogram.Histogram), want)
	}
}
