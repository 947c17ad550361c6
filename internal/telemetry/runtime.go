package telemetry

// The Go runtime's memory and GC series for the /metrics exposition:
// live heap bytes, GC cycles, GC CPU time and the GC stop-the-world
// pause histogram. They are read from runtime/metrics when a scrape
// renders them, so nothing on a request's path records them and the hot
// path stays allocation-free.

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strconv"
)

// pauseBounds are the exposed pause histogram's bucket upper bounds, in
// seconds. The runtime keeps a much finer histogram; each of its buckets
// counts toward the first bound at or above its own upper edge.
var pauseBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// WriteRuntime renders the Go runtime series in the Prometheus text
// format:
//
//	selest_go_heap_live_bytes         gauge: heap bytes the last GC marked live
//	selest_go_gc_cycles_total         counter: completed GC cycles
//	selest_go_gc_cpu_seconds_total    counter: CPU time spent in GC
//	selest_go_gc_pause_seconds        histogram: GC stop-the-world pauses
//
// The pause histogram's _sum places each pause at the midpoint of the
// runtime bucket that holds it.
func WriteRuntime(w io.Writer) error {
	// Every name exists since Go 1.22, the go.mod floor.
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	if _, err := fmt.Fprintf(w,
		"# TYPE selest_go_heap_live_bytes gauge\nselest_go_heap_live_bytes %d\n"+
			"# TYPE selest_go_gc_cycles_total counter\nselest_go_gc_cycles_total %d\n"+
			"# TYPE selest_go_gc_cpu_seconds_total counter\nselest_go_gc_cpu_seconds_total %s\n"+
			"# TYPE selest_go_gc_pause_seconds histogram\n",
		s[0].Value.Uint64(), s[1].Value.Uint64(), formatFloat(s[2].Value.Float64())); err != nil {
		return err
	}
	h := s[3].Value.Float64Histogram()
	counts, buckets := h.Counts, h.Buckets
	// counts[i] covers [buckets[i], buckets[i+1]).
	var cum, total uint64
	sum := 0.0
	i := 0
	for _, le := range pauseBounds {
		for ; i < len(counts) && buckets[i+1] <= le; i++ {
			cum += counts[i]
		}
		if _, err := fmt.Fprintf(w, "selest_go_gc_pause_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(le, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	for j, c := range counts {
		total += c
		if c > 0 {
			lo, hi := math.Max(buckets[j], 0), buckets[j+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			sum += float64(c) * (lo + hi) / 2
		}
	}
	_, err := fmt.Fprintf(w, "selest_go_gc_pause_seconds_bucket{le=\"+Inf\"} %d\nselest_go_gc_pause_seconds_sum %s\nselest_go_gc_pause_seconds_count %d\n",
		total, formatFloat(sum), total)
	return err
}
