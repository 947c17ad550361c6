package kde

// Batch evaluation: answer many range queries against one estimator in
// one call, each through Selectivity, so every result is bit-identical
// to the single-query answer.

import "selest/internal/telemetry"

// Range is one selectivity query [A, B] for the batch API.
type Range struct {
	A, B float64
}

// SelectivityBatch answers every query and returns the estimates in input
// order.
func (e *Estimator) SelectivityBatch(qs []Range) []float64 {
	return e.SelectivityBatchInto(make([]float64, 0, len(qs)), qs)
}

// SelectivityBatchInto is SelectivityBatch writing into dst (reallocated
// only when its capacity is insufficient), for allocation-free steady-state
// serving loops. Each query goes through Selectivity, so each result
// equals the corresponding Selectivity call exactly.
func (e *Estimator) SelectivityBatchInto(dst []float64, qs []Range) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if telemetry.Enabled() {
		kdeBatchCalls.Inc()
		kdeBatchQueries.Add(int64(len(qs)))
	}
	for i, q := range qs {
		dst[i] = e.Selectivity(q.A, q.B)
	}
	return dst
}
