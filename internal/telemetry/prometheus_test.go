package telemetry

import (
	"bufio"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition of a deterministic
// registry, line by line: family grouping, label rendering, cumulative
// buckets, sum/count, and sort order.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("selest_fit_total", "method", "kernel")).Add(3)
	r.Counter(Label("selest_fit_total", "method", "equi-depth")).Add(1)
	r.Counter("selest_kde_queries_total").Add(42)
	r.Gauge(Label("selest_fit_bandwidth", "method", "kernel")).Set(1234.5)
	h := r.Histogram(Label("selest_query_nanos", "estimator", "kernel(epanechnikov,none)"))
	h.Observe(1)    // upper 1
	h.Observe(3)    // upper 3
	h.Observe(3)    // upper 3
	h.Observe(1000) // upper 1023

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	want := []string{
		`# TYPE selest_fit_total counter`,
		`selest_fit_total{method="equi-depth"} 1`,
		`selest_fit_total{method="kernel"} 3`,
		`# TYPE selest_kde_queries_total counter`,
		`selest_kde_queries_total 42`,
		`# TYPE selest_fit_bandwidth gauge`,
		`selest_fit_bandwidth{method="kernel"} 1234.5`,
		`# TYPE selest_query_nanos histogram`,
		`selest_query_nanos_bucket{estimator="kernel(epanechnikov,none)",le="1"} 1`,
		`selest_query_nanos_bucket{estimator="kernel(epanechnikov,none)",le="3"} 3`,
		`selest_query_nanos_bucket{estimator="kernel(epanechnikov,none)",le="1023"} 4`,
		`selest_query_nanos_bucket{estimator="kernel(epanechnikov,none)",le="+Inf"} 4`,
		`selest_query_nanos_sum{estimator="kernel(epanechnikov,none)"} 1007`,
		`selest_query_nanos_count{estimator="kernel(epanechnikov,none)"} 4`,
	}
	if len(got) != len(want) {
		t.Fatalf("exposition has %d lines, want %d:\n%s", len(got), len(want), sb.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, got[i], want[i])
		}
	}
}

var (
	typeLineRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleLineRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+Inf-]+)$`)
)

// parseExposition validates an exposition line by line and returns the
// sample count per family, failing the test on any malformed line.
func parseExposition(t *testing.T, text string) map[string]int {
	t.Helper()
	families := map[string]string{} // family → declared type
	samples := map[string]int{}
	var lastBucketCum = map[string]int64{} // series labels → last cumulative bucket
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			m := typeLineRE.FindStringSubmatch(s)
			if m == nil {
				t.Fatalf("line %d: malformed comment %q", line, s)
			}
			if _, dup := families[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", line, m[1])
			}
			families[m[1]] = m[2]
			continue
		}
		m := sampleLineRE.FindStringSubmatch(s)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", line, s)
		}
		name := m[1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && families[base] == "histogram" {
				family = base
			}
		}
		typ, ok := families[family]
		if !ok {
			t.Fatalf("line %d: sample %q before its TYPE line", line, s)
		}
		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			// Bucket series must be cumulative and non-decreasing.
			v, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket value %q: %v", line, m[3], err)
			}
			key := stripLe(m[2])
			if v < lastBucketCum[name+key] {
				t.Fatalf("line %d: bucket series %s%s not cumulative", line, name, key)
			}
			lastBucketCum[name+key] = v
		}
		if typ == "counter" {
			if _, err := strconv.ParseInt(m[3], 10, 64); err != nil {
				t.Fatalf("line %d: counter value %q: %v", line, m[3], err)
			}
		}
		samples[family]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// stripLe removes the le label from a rendered label set so bucket
// series of one histogram share a key.
var leRE = regexp.MustCompile(`,?le="[^"]*"`)

func stripLe(labels string) string { return leRE.ReplaceAllString(labels, "") }

// TestPrometheusParses runs the structural parser over a registry
// exercising every metric kind, including awkward label values.
func TestPrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Counter(Label("b_total", "method", "max-diff")).Add(7)
	r.Gauge("g").Set(0.125)
	r.Gauge(Label("g2", "rule", "normal-scale")).Set(-3)
	h := r.Histogram(Label("lat_nanos", "estimator", "robust(kernel(epanechnikov,boundary-kernels))"))
	for i := int64(1); i < 1<<20; i *= 3 {
		h.Observe(i)
	}
	r.Histogram("empty_nanos") // no observations: only +Inf/sum/count

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())
	if samples["a_total"] != 1 || samples["b_total"] != 1 || samples["g"] != 1 || samples["g2"] != 1 {
		t.Fatalf("sample counts = %v", samples)
	}
	if samples["lat_nanos"] < 3 {
		t.Fatalf("histogram rendered %d samples, want buckets+sum+count", samples["lat_nanos"])
	}
}

// TestRuntimeExposition checks the Go runtime series /metrics appends to
// the registry: every family is present with a parseable value, a forced
// GC moves the cycle count, and the pause histogram is cumulative with
// its +Inf bucket equal to its count.
func TestRuntimeExposition(t *testing.T) {
	scrape := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		out := map[string]float64{}
		var prev float64
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "selest_go_") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparseable runtime series %q", line)
			}
			if strings.HasPrefix(line, "selest_go_gc_pause_seconds_bucket") {
				if v < prev {
					t.Fatalf("pause buckets not cumulative at %q", line)
				}
				prev = v
			}
			out[line[:i]] = v
		}
		return out
	}
	runtime.GC()
	before := scrape()
	for _, name := range []string{
		"selest_go_heap_live_bytes",
		"selest_go_gc_cycles_total",
		"selest_go_gc_cpu_seconds_total",
		`selest_go_gc_pause_seconds_bucket{le="0.001"}`,
		`selest_go_gc_pause_seconds_bucket{le="+Inf"}`,
		"selest_go_gc_pause_seconds_sum",
		"selest_go_gc_pause_seconds_count",
	} {
		if _, ok := before[name]; !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
	if before["selest_go_heap_live_bytes"] <= 0 || before["selest_go_gc_cycles_total"] < 1 {
		t.Fatalf("runtime series after a GC: %v", before)
	}
	if before[`selest_go_gc_pause_seconds_bucket{le="+Inf"}`] != before["selest_go_gc_pause_seconds_count"] {
		t.Fatalf("+Inf bucket %v != count %v", before[`selest_go_gc_pause_seconds_bucket{le="+Inf"}`], before["selest_go_gc_pause_seconds_count"])
	}
	runtime.GC()
	if after := scrape(); after["selest_go_gc_cycles_total"] <= before["selest_go_gc_cycles_total"] ||
		after["selest_go_gc_pause_seconds_count"] <= before["selest_go_gc_pause_seconds_count"] {
		t.Fatalf("a forced GC did not move the cycle or pause counts: %v -> %v", before, after)
	}
}
