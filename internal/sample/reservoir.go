package sample

import (
	"math"
	"slices"
	"sync"
	"time"

	"selest/internal/fsort"
	"selest/internal/xrand"
)

// Reservoir maintains a uniform sample of fixed capacity over a stream of
// unknown length (Vitter's algorithm R). It supports the online-estimation
// extension: estimators are re-fit from the reservoir as records stream in.
//
// A Reservoir is safe for concurrent use. One mutex guards the contents;
// AddBatch takes it once for a whole run, and the readers (Snapshot,
// Count, Sorted) hold it only while they copy or scan the contents.
type Reservoir struct {
	mu       sync.Mutex
	rng      *xrand.RNG
	capacity int
	seen     int
	items    []float64

	// The replacement log: the values add admitted and the residents they
	// evicted since the last sorted view, so the next view can merge them
	// into the previous one instead of sorting every item again. It is off
	// until the first view, and it stops once it passes
	// capacity/mergeDivisor admissions, until the next view restarts it,
	// so it never holds more than twice that in values.
	logging  bool
	admitted []float64
	evicted  []float64

	// viewMu serialises Sorted, which owns the fields below: the last
	// view it returned (the base of the next merge) and the log it took
	// over from the reservoir to merge into that view.
	viewMu       sync.Mutex
	view         []float64
	viewAdmitted []float64
	viewEvicted  []float64
}

// NewReservoir returns a reservoir holding at most capacity items. It
// allocates nothing for them up front: the contents grow as elements are
// admitted, never past capacity. It panics on capacity <= 0.
func NewReservoir(r *xrand.RNG, capacity int) *Reservoir {
	if capacity <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	return &Reservoir{rng: r, capacity: capacity}
}

// Add offers one stream element to the reservoir. It reports whether
// the element was kept — appended while filling, or admitted by
// evicting a resident element once full — so callers can track
// reservoir churn without re-reading the contents.
func (rv *Reservoir) Add(x float64) bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.add(x)
}

// AddBatch offers a run of stream elements and reports how many were
// kept and how many of those evicted a resident element. It admits the
// run under one lock, where repeated Adds take it per element, and
// leaves the contents, seen count and RNG state exactly as the same
// Adds one by one would.
//
// Once the reservoir is full, the slot an admission evicts is a random
// one, so reading it is usually a cache miss. AddBatch therefore takes
// a full reservoir's run touchAhead elements at a time: it draws the
// chunk's slots first, in add's RNG order, then reads the slots it will
// evict in a loop with no dependent work, so the misses overlap, and
// only then admits the chunk in order, as add does.
func (rv *Reservoir) AddBatch(xs []float64) (kept, evicted int) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	before := len(rv.items)
	for len(xs) > 0 && len(rv.items) < rv.capacity {
		rv.add(xs[0])
		kept++
		xs = xs[1:]
	}
	var pos, slot [touchAhead]int
	for len(xs) > 0 {
		chunk := xs[:min(len(xs), touchAhead)]
		xs = xs[len(chunk):]
		n := 0
		for i := range chunk {
			rv.seen++
			if j := rv.rng.Intn(rv.seen); j < rv.capacity {
				pos[n], slot[n] = i, j
				n++
			}
		}
		touch(rv.items, slot[:n])
		for k := range n {
			rv.replace(slot[k], chunk[pos[k]])
		}
		kept += n
	}
	return kept, kept - (len(rv.items) - before)
}

// touchAhead is how many elements of a run AddBatch draws slots for
// before it admits any of them: enough misses in flight to cover the
// memory latency, few enough that the slots stay on the stack.
const touchAhead = 64

// touch reads the residents in the given slots and returns their bits
// folded together. It stays out of line so that the reads, whose values
// its caller drops, are not optimised away: they only bring the slots
// into cache ahead of the admissions that overwrite them.
//
//go:noinline
func touch(items []float64, slots []int) (sum uint64) {
	for _, j := range slots {
		sum ^= math.Float64bits(items[j])
	}
	return sum
}

// add is algorithm R's step for one element; the caller holds mu.
func (rv *Reservoir) add(x float64) bool {
	rv.seen++
	if len(rv.items) < rv.capacity {
		if rv.logging {
			rv.logAdmission(x)
		}
		rv.grow()
		rv.items = append(rv.items, x)
		return true
	}
	if j := rv.rng.Intn(rv.seen); j < rv.capacity {
		rv.replace(j, x)
		return true
	}
	return false
}

// grow makes room for one more element while the reservoir fills: a
// full backing array is replaced by one twice its size, or the capacity
// if that is smaller. The caller holds mu.
func (rv *Reservoir) grow() {
	if len(rv.items) == cap(rv.items) {
		grown := make([]float64, len(rv.items), min(max(1, 2*cap(rv.items)), rv.capacity))
		copy(grown, rv.items)
		rv.items = grown
	}
}

// replace admits x into a full reservoir over the resident in slot j;
// the caller holds mu.
func (rv *Reservoir) replace(j int, x float64) {
	if rv.logging && rv.logAdmission(x) {
		rv.evicted = append(rv.evicted, rv.items[j])
	}
	rv.items[j] = x
}

// mergeDivisor bounds the replacement log and the merge path: a log
// stops at capacity/mergeDivisor admissions, and Sorted merges only when
// the admissions are at most 1/mergeDivisor of the contents. Beyond that
// sorting the delta and merging it costs about what a full sort does.
const mergeDivisor = 8

// logAdmission records an admitted value, or stops the log when it
// already holds capacity/mergeDivisor admissions, and reports whether
// the log is still running.
func (rv *Reservoir) logAdmission(x float64) bool {
	if len(rv.admitted) >= rv.capacity/mergeDivisor {
		rv.logging = false
		return false
	}
	rv.admitted = append(rv.admitted, x)
	return true
}

// restartLog empties the replacement log and turns it on: the contents
// as they stand are the base the log records changes against.
func (rv *Reservoir) restartLog() {
	rv.logging = true
	rv.admitted, rv.evicted = rv.admitted[:0], rv.evicted[:0]
}

// Snapshot returns a copy of the current reservoir contents. The copy is
// independent of the reservoir: later Adds never show through it, so
// callers (persistence) can read it while the reservoir keeps absorbing
// the stream.
func (rv *Reservoir) Snapshot() []float64 {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return append([]float64(nil), rv.items...)
}

// Count returns how many resident elements lie in [lo, hi] and how many
// are resident in all, scanning the contents in place under the lock:
// the pure-sampling estimate in/total without Snapshot's copy.
func (rv *Reservoir) Count(lo, hi float64) (in, total int) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	for _, v := range rv.items {
		if v >= lo && v <= hi {
			in++
		}
	}
	return in, len(rv.items)
}

// A View is the reservoir's contents in sorted order, as Sorted returns
// them, with how Sorted produced them.
type View struct {
	// Values holds the contents in radix-key order: the order
	// fsort.Float64s gives them, −0 before +0. The slice is shared with
	// the reservoir, which keeps it as the base of the next merge, so it
	// must not be modified.
	Values []float64
	// Merged counts the logged admissions and evictions merged into the
	// previous view to make this one, or is −1 when the contents were
	// copied and sorted in full.
	Merged int
	// Capture is how long Sorted held the reservoir's lock to take its
	// log or copy its contents: all a writer can stall on.
	Capture time.Duration
}

// Sorted returns the contents in radix-key order. Between two calls the
// reservoir logs what it admits and evicts; when the log is intact and
// the admissions number at most an eighth of the contents, Sorted sorts
// only the logged values and merges them into the previous view in one
// linear pass. Otherwise, or on the first call, it copies and sorts the
// contents in full. Either way Values is bit for bit what
// fsort.Float64s would make of a Snapshot taken at the same moment, so
// a fit built from it is the fit a sorted Snapshot would give. The lock
// is held only while the log is taken or the contents copied, and
// concurrent calls are serialised.
func (rv *Reservoir) Sorted() View {
	rv.viewMu.Lock()
	defer rv.viewMu.Unlock()
	var capture time.Duration
	if rv.view != nil {
		start := time.Now()
		intact := rv.takeLog()
		capture = time.Since(start)
		if intact {
			if v, ok := rv.mergeLog(); ok {
				v.Capture = capture
				return v
			}
		}
	}
	start := time.Now()
	rv.mu.Lock()
	out := slices.Clone(rv.items)
	rv.restartLog()
	rv.mu.Unlock()
	capture += time.Since(start)
	fsort.Float64s(out)
	rv.view = out
	return View{Values: out, Merged: -1, Capture: capture}
}

// takeLog moves the replacement log into viewAdmitted and viewEvicted,
// handing the reservoir the emptied buffers of the last one, and
// restarts it. It reports false, taking nothing, when the log has
// stopped.
func (rv *Reservoir) takeLog() bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if !rv.logging {
		return false
	}
	rv.viewAdmitted, rv.admitted = rv.admitted, rv.viewAdmitted[:0]
	rv.viewEvicted, rv.evicted = rv.evicted, rv.viewEvicted[:0]
	return true
}

// mergeLog makes the next view from the previous one and the taken log.
// It reports false, leaving the view alone, when the admissions exceed
// 1/mergeDivisor of the contents, or when the view or the admissions
// hold a NaN: NaNs sort first in sort.Float64s order rather than by key.
func (rv *Reservoir) mergeLog() (View, bool) {
	admitted, evicted := rv.viewAdmitted, rv.viewEvicted
	merged := len(admitted) + len(evicted)
	if merged == 0 {
		return View{Values: rv.view}, true
	}
	if n := len(rv.view) + len(admitted) - len(evicted); len(admitted) > n/mergeDivisor {
		return View{}, false
	}
	fsort.Float64s(admitted)
	fsort.Float64s(evicted)
	if startsWithNaN(rv.view) || startsWithNaN(admitted) {
		return View{}, false
	}
	rv.view = mergeSorted(rv.view, admitted, evicted)
	return View{Values: rv.view, Merged: merged}, true
}

func startsWithNaN(sorted []float64) bool {
	return len(sorted) > 0 && math.IsNaN(sorted[0])
}

// mergeSorted returns base with admitted merged in and evicted taken
// out, in one pass. All three are in radix-key order and evicted is a
// sub-multiset of base and admitted together. A key identifies a bit
// pattern, so equal keys are interchangeable values: an admission and an
// eviction of the same value cancel, and any other eviction removes the
// first base value with its key. Between two such events the base is
// copied run by run.
func mergeSorted(base, admitted, evicted []float64) []float64 {
	out := make([]float64, 0, len(base)+len(admitted)-len(evicted))
	i, j, k := 0, 0, 0
	for j < len(admitted) || k < len(evicted) {
		ka, ke := uint64(math.MaxUint64), uint64(math.MaxUint64)
		if j < len(admitted) {
			ka = fsort.Key(admitted[j])
		}
		if k < len(evicted) {
			ke = fsort.Key(evicted[k])
		}
		next := min(ka, ke)
		p := i
		for p < len(base) && fsort.Key(base[p]) < next {
			p++
		}
		out = append(out, base[i:p]...)
		i = p
		switch {
		case ka == ke:
			j++
			k++
		case ka < ke:
			out = append(out, admitted[j])
			j++
		default:
			i++
			k++
		}
	}
	return append(out, base[i:]...)
}

// Restore replaces the contents with a saved sample xs of a stream of
// seen elements, such as a snapshot of this reservoir, as though the
// reservoir had taken all seen elements: later elements are admitted
// with probability K/(seen+i) rather than K/(len(xs)+i). A seen below
// len(xs), as from a snapshot that predates stream lengths, counts xs
// alone. The RNG state is not part of a snapshot and is not restored.
func (rv *Reservoir) Restore(xs []float64, seen int) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.seen, rv.items, rv.logging = 0, rv.items[:0], false
	for _, x := range xs {
		rv.add(x)
	}
	rv.seen = max(seen, len(xs))
}

// Len returns how many elements the reservoir currently holds.
func (rv *Reservoir) Len() int {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return len(rv.items)
}

// Seen returns the stream length: how many elements have been offered,
// including the length a Restore carried over.
func (rv *Reservoir) Seen() int {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.seen
}
