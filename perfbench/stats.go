package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported tail percentile must have
// at least this many samples beyond it.
const minBeyond = 10

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// tailQuantile is the quantile reported for a wanted tail q over n
// samples: q itself when at least minBeyond samples lie beyond it,
// otherwise the highest quantile that has minBeyond beyond it.
func tailQuantile(n int, q float64) float64 {
	if hi := float64(n-minBeyond) / float64(n); hi < q {
		return hi
	}
	return q
}

// rankIndex is the nearest-rank index of quantile q among n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// percentile returns the nearest-rank q-quantile of sorted ns samples,
// applying the percentile rule for tails (q > 0.5). It errors when fewer
// than 2*minBeyond samples exist.
func percentile(sorted []int64, q float64) (float64, error) {
	n := len(sorted)
	if n < 2*minBeyond {
		return 0, fmt.Errorf("%d samples, need %d", n, 2*minBeyond)
	}
	if q > 0.5 {
		q = tailQuantile(n, q)
	}
	v := sorted[rankIndex(n, q)]
	if v == math.MaxInt64 {
		return math.Inf(1), nil
	}
	return float64(v), nil
}

// percentileF is percentile over sorted float64 samples.
func percentileF(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n < 2*minBeyond {
		return 0, fmt.Errorf("%d samples, need %d", n, 2*minBeyond)
	}
	if q > 0.5 {
		q = tailQuantile(n, q)
	}
	return sorted[rankIndex(n, q)], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// truthQuery asks how many of the first k stream values lie in [lo, hi].
type truthQuery struct {
	lo, hi float64
	k      int64
}

// truthCounts answers every query exactly against a cyclic stream (value
// j is base[j % len(base)]). Queries are answered offline in order of
// k mod len(base) by a Fenwick tree over value ranks, so the cost is
// O((len(base) + len(qs)) log len(base)) however many queries there are.
func truthCounts(base []float64, qs []truthQuery) []int64 {
	L := len(base)
	sorted := append([]float64(nil), base...)
	sort.Float64s(sorted)
	lower := func(x float64) int { return sort.SearchFloat64s(sorted, x) }
	upper := func(x float64) int { return sort.Search(L, func(i int) bool { return sorted[i] > x }) }

	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qs[order[a]].k%int64(L) < qs[order[b]].k%int64(L) })

	tree := make([]int64, L+1)
	add := func(i int) {
		for i++; i <= L; i += i & -i {
			tree[i]++
		}
	}
	prefix := func(i int) (s int64) { // count of inserted ranks < i
		for ; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	out := make([]int64, len(qs))
	next := 0
	for _, qi := range order {
		q := qs[qi]
		for r := int(q.k % int64(L)); next < r; next++ {
			add(lower(base[next]))
		}
		lo, hi := lower(q.lo), upper(q.hi)
		if hi > lo {
			out[qi] = (q.k/int64(L))*int64(hi-lo) + prefix(hi) - prefix(lo)
		}
	}
	return out
}

// accuracy is the paper §5.1.2 error of served estimates against exact
// truth.
type accuracy struct {
	mre     float64 // mean of |truth − σ̂·N| / truth
	qErrP95 float64 // 95th percentile of max(est/truth, truth/est), est floored at 1
	used    int     // queries with non-zero truth
	skipped int     // zero-truth queries, skipped as errmetrics.MRE does
	maxQErr float64
	served  int
}

// score computes accuracy from served selectivities, the stream sizes
// they were served against, and the exact counts.
func score(sel []float64, n []int64, truth []int64) (accuracy, error) {
	var acc accuracy
	var qerr []float64
	sum := 0.0
	for i := range sel {
		acc.served++
		if truth[i] == 0 {
			acc.skipped++
			continue
		}
		t := float64(truth[i])
		est := sel[i] * float64(n[i])
		sum += math.Abs(t-est) / t
		acc.used++
		e := math.Max(est, 1)
		qerr = append(qerr, math.Max(e/t, t/e))
	}
	if acc.used < 2*minBeyond {
		return acc, fmt.Errorf("only %d queries with non-zero truth", acc.used)
	}
	acc.mre = sum / float64(acc.used)
	sort.Float64s(qerr)
	acc.maxQErr = qerr[len(qerr)-1]
	var err error
	acc.qErrP95, err = percentileF(qerr, 0.95)
	return acc, err
}
