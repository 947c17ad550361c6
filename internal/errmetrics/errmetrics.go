// Package errmetrics evaluates selectivity estimators against query
// workloads with known ground truth: the mean relative error (the paper's
// MRE, §5.1.2) and the error-versus-position curves behind figures 3
// and 10.
package errmetrics

import (
	"math"

	"selest/internal/query"
)

// Estimator is the minimal estimator surface this package needs; every
// selectivity estimator in the repository satisfies it.
type Estimator interface {
	Selectivity(a, b float64) float64
}

// MRE returns the mean relative error of the estimator over the workload:
//
//	MRE = (1/|F|) Σ_Q | |Q| − σ̂·N | / |Q|
//
// exactly as paper §5.1.2 defines it. Queries with an empty true result
// are skipped (the relative error is undefined there); skipped reports how
// many. If every query is empty, MRE returns NaN.
func MRE(e Estimator, w *query.Workload) (mre float64, skipped int) {
	sum, used := 0.0, 0
	for i, q := range w.Queries {
		trueCount := float64(w.TrueCounts[i])
		if trueCount == 0 {
			skipped++
			continue
		}
		est := e.Selectivity(q.A, q.B) * float64(w.N)
		sum += math.Abs(trueCount-est) / trueCount
		used++
	}
	if used == 0 {
		return math.NaN(), skipped
	}
	return sum / float64(used), skipped
}

// PositionError is one point of an error-versus-position curve.
type PositionError struct {
	// Pos is the query's left edge.
	Pos float64
	// Signed is the signed absolute error in records, σ̂·N − |Q|
	// (Fig. 3 plots this).
	Signed float64
	// Relative is |σ̂·N − |Q|| / |Q|, or NaN for empty queries
	// (Fig. 10 plots this).
	Relative float64
}

// ByPosition evaluates the estimator on a position-sweep workload and
// returns one point per query, in sweep order.
func ByPosition(e Estimator, w *query.Workload) []PositionError {
	out := make([]PositionError, len(w.Queries))
	for i, q := range w.Queries {
		est := e.Selectivity(q.A, q.B) * float64(w.N)
		trueCount := float64(w.TrueCounts[i])
		pe := PositionError{Pos: q.A, Signed: est - trueCount}
		if trueCount > 0 {
			pe.Relative = math.Abs(est-trueCount) / trueCount
		} else {
			pe.Relative = math.NaN()
		}
		out[i] = pe
	}
	return out
}
