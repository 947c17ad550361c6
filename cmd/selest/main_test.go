package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selest"
	"selest/internal/dataset"
	"selest/internal/xrand"
)

func TestParseQueries(t *testing.T) {
	qs, err := parseQueries([]string{"1:2", "-5:10", "3.5:3.5"})
	if err != nil {
		t.Fatal(err)
	}
	want := []rangeQuery{{1, 2}, {-5, 10}, {3.5, 3.5}}
	for i := range want {
		if qs[i] != want[i] {
			t.Fatalf("query %d = %+v, want %+v", i, qs[i], want[i])
		}
	}
}

func TestParseQueriesErrors(t *testing.T) {
	for _, bad := range []string{"12", "a:b", "1:", ":2", "5:1"} {
		if _, err := parseQueries([]string{bad}); err == nil {
			t.Fatalf("query %q should fail", bad)
		}
	}
}

func TestReadValuesText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vals.txt")
	content := "1.5\n\n# comment line\n2\n  3.25  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readValues(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3.25}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadValuesBadLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("1\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readValues(path); err == nil {
		t.Fatal("bad line should fail")
	}
}

func TestReadValuesMissingFile(t *testing.T) {
	if _, err := readValues(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestReadValuesSeld(t *testing.T) {
	f := dataset.UniformFile(10, 100, 1)
	path := filepath.Join(t.TempDir(), "u.seld")
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := readValues(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("loaded %d values", len(got))
	}
}

func TestExactCount(t *testing.T) {
	values := []float64{1, 2, 2, 3, 10}
	if got := exactCount(values, 2, 3); got != 3 {
		t.Fatalf("exactCount = %d, want 3", got)
	}
	if got := exactCount(values, 4, 9); got != 0 {
		t.Fatalf("exactCount = %d, want 0", got)
	}
}

func TestMethodList(t *testing.T) {
	s := methodList()
	if s == "" || len(s) < 20 {
		t.Fatalf("methodList = %q", s)
	}
}

func TestReadValuesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vals.csv")
	if err := os.WriteFile(path, []byte("amount\n1.5\n2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readValuesOpts(path, "amount", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestBuildEstimatorStrictVsRobust(t *testing.T) {
	smp := make([]float64, 200)
	for i := range smp {
		smp[i] = float64(i)
	}
	opts := selest.Options{Method: selest.Kernel, Boundary: selest.BoundaryKernels, DomainLo: 0, DomainHi: 199}
	for _, robustMode := range []bool{false, true} {
		est, err := buildEstimator(smp, opts, robustMode)
		if err != nil {
			t.Fatalf("robust=%v: %v", robustMode, err)
		}
		if s := est.Selectivity(0, 100); s <= 0 || s > 1 {
			t.Fatalf("robust=%v: Selectivity = %v", robustMode, s)
		}
	}
}

// TestBuildEstimatorAllEqualData is the regression for the CLI's former
// hard failure on degenerate data: all-equal values must build a serving
// point-mass estimator through the robust ladder.
func TestBuildEstimatorAllEqualData(t *testing.T) {
	smp := []float64{42, 42, 42, 42, 42}
	opts := selest.Options{Method: selest.Kernel, DomainLo: 42, DomainHi: 42}
	if _, err := buildEstimator(smp, opts, false); err == nil {
		t.Fatal("strict build should fail on an empty domain")
	}
	est, err := buildEstimator(smp, opts, true)
	if err != nil {
		t.Fatalf("robust build on all-equal data: %v", err)
	}
	if s := est.Selectivity(40, 45); s != 1 {
		t.Fatalf("covering query = %v, want 1", s)
	}
	if s := est.Selectivity(43, 45); s != 0 {
		t.Fatalf("disjoint query = %v, want 0", s)
	}
}

// TestRunOnline streams a uniform column through the serving engine and
// checks the served estimate against the exact selectivity, the header
// stats, and that cadence refits actually happened before the flush.
func TestRunOnline(t *testing.T) {
	r := xrand.New(5)
	values := make([]float64, 5000)
	for i := range values {
		values[i] = r.Float64() * 1000
	}
	opts := selest.Options{Method: selest.Kernel, Boundary: selest.BoundaryKernels, DomainLo: 0, DomainHi: 1000}
	var out strings.Builder
	err := runOnline(&out, values, []rangeQuery{{100, 300}}, opts, 500, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "online: 5000 records streamed") {
		t.Fatalf("missing stream header:\n%s", text)
	}
	if strings.Contains(text, "no fit published") {
		t.Fatalf("flush should have published a fit:\n%s", text)
	}
	// 5000 inserts at RefitEvery=1000 after the 500-record fill refit,
	// plus the final flush: several generations, never zero.
	var sel float64
	if _, err := fmt.Sscanf(text[strings.Index(text, "σ̂ = "):], "σ̂ = %f", &sel); err != nil {
		t.Fatalf("no estimate in output:\n%s", text)
	}
	if sel < 0.1 || sel > 0.3 {
		t.Fatalf("served selectivity %v implausible for uniform data on [100,300]", sel)
	}
}

// TestRunOnlineNoFit pins the SelectivityOK path: an estimator that never
// fits must say "no fit published", not serve a silent zero — runOnline
// surfaces the flush error instead.
func TestRunOnlineNoFit(t *testing.T) {
	opts := selest.Options{Method: selest.Kernel, DomainLo: 0, DomainHi: 1}
	var out strings.Builder
	err := runOnline(&out, nil, []rangeQuery{{0, 1}}, opts, 100, 0, 1)
	if err == nil {
		t.Fatal("empty stream should fail the final flush")
	}
}
