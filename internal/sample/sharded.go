package sample

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"selest/internal/fsort"
	"selest/internal/xrand"
)

// ShardedReservoir is a reservoir sample whose ingest path is striped
// across independently locked shards, so concurrent writers stop
// serializing on one mutex. Each shard owns a plain Reservoir over a
// deterministic 1-in-S slice of the stream: an atomic round-robin cursor
// assigns element k to shard k mod S, so after N inserts shard i has seen
// ceil((N−i)/S) elements and every shard's reservoir is a uniform sample
// of its slice. The union of per-shard uniform samples over an
// equal-share partition of the stream is a uniform sample of the whole
// stream (up to the ±1 element the round-robin remainder leaves between
// shards), which is the same guarantee the single reservoir gives.
//
// Shard capacities follow the same remainder order as the cursor
// (shard i holds ceil((K−i)/S) of the K total slots), so the merged
// sample reaches exactly K elements on the K-th insert and no shard
// evicts while the reservoir is still filling — preserving the
// "first refit when the reservoir fills" trigger of the online
// estimator bit-for-bit.
//
// With one shard the ingest order, RNG consumption, and therefore the
// exact sampled contents match a plain NewReservoir(xrand.New(seed), K)
// stream for stream, so existing seeded behaviour is unchanged at S = 1.
type ShardedReservoir struct {
	shards []reservoirShard
	cursor atomic.Uint64 // round-robin assignment of inserts to shards
	seen   atomic.Int64
	held   atomic.Int64 // total elements currently resident across shards

	// viewMu serialises Sorted, which owns the fields below: the last
	// view it returned (the base of the next merge) and the buffers it
	// gathers the shards' replacement logs into.
	viewMu   sync.Mutex
	view     []float64
	admitted []float64
	evicted  []float64
}

// reservoirShard pads each shard onto its own cache lines so neighbouring
// shard locks don't false-share under parallel ingest.
type reservoirShard struct {
	mu  sync.Mutex
	res *Reservoir
	_   [64 - 8]byte
}

// NewSharded returns a reservoir of total capacity split over the given
// number of shards. shards < 1 is treated as 1; shards is capped at
// capacity so every shard holds at least one slot. It panics on
// capacity <= 0 (matching NewReservoir). Shard i's RNG is seeded from
// seed + i via splitmix64, so nearby shard seeds yield uncorrelated
// streams and S = 1 reproduces the unsharded seeding exactly.
func NewSharded(seed uint64, capacity, shards int) *ShardedReservoir {
	if capacity <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	s := &ShardedReservoir{shards: make([]reservoirShard, shards)}
	for i := range s.shards {
		// ceil((capacity − i)/shards): the first (capacity mod shards)
		// shards take the remainder slots, in cursor order.
		c := (capacity - i + shards - 1) / shards
		s.shards[i].res = NewReservoir(xrand.New(seed+uint64(i)), c)
	}
	return s
}

// Add offers one stream element, reporting whether it was kept and
// whether keeping it evicted a resident element. Only the chosen shard's
// lock is taken, so inserts to different shards proceed in parallel.
func (s *ShardedReservoir) Add(x float64) (kept, evicted bool) {
	sh := &s.shards[(s.cursor.Add(1)-1)%uint64(len(s.shards))]
	sh.mu.Lock()
	wasFull := sh.res.Len() == sh.res.capacity
	kept = sh.res.Add(x)
	sh.mu.Unlock()
	s.seen.Add(1)
	if kept && !wasFull {
		s.held.Add(1)
	}
	return kept, kept && wasFull
}

// AddBatch offers a run of stream elements and reports how many were
// kept and how many of those evicted a resident element. It admits the
// run with one cursor reservation, one lock per shard it touches, and
// one update of each counter, where repeated Adds pay all three per
// element. Element j of the run goes to the shard the cursor would have
// dealt it to, and each shard takes its elements in stream order, so a
// single writer's AddBatch leaves every shard — contents, seen count and
// RNG state — exactly as the same Adds one by one would.
func (s *ShardedReservoir) AddBatch(xs []float64) (kept, evicted int) {
	n := uint64(len(xs))
	if n == 0 {
		return 0, 0
	}
	nShards := uint64(len(s.shards))
	start := s.cursor.Add(n) - n
	grew := 0
	for k := uint64(0); k < min(n, nShards); k++ {
		sh := &s.shards[(start+k)%nShards]
		sh.mu.Lock()
		before := sh.res.Len()
		for j := k; j < n; j += nShards {
			if sh.res.Add(xs[j]) {
				kept++
			}
		}
		grew += sh.res.Len() - before
		sh.mu.Unlock()
	}
	s.seen.Add(int64(n))
	s.held.Add(int64(grew))
	return kept, kept - grew
}

// Snapshot returns a copy of the merged reservoir contents, shard by
// shard. Each shard is locked only for its own copy, so a snapshot stalls
// any one writer for at most one shard's memcpy.
func (s *ShardedReservoir) Snapshot() []float64 {
	return s.copyShards(false)
}

// Count returns how many resident elements lie in [lo, hi] and how many
// are resident in all, scanning each shard in place under its lock: the
// pure-sampling estimate in/total without Snapshot's copy.
func (s *ShardedReservoir) Count(lo, hi float64) (in, total int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.res.items {
			if v >= lo && v <= hi {
				in++
			}
		}
		total += len(sh.res.items)
		sh.mu.Unlock()
	}
	return in, total
}

// copyShards copies the contents shard by shard, each under its own
// lock, and with restartLogs also restarts each shard's replacement log
// at the moment its contents are copied.
func (s *ShardedReservoir) copyShards(restartLogs bool) []float64 {
	out := make([]float64, 0, s.held.Load()+int64(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = sh.res.AppendTo(out)
		if restartLogs {
			sh.res.restartLog()
		}
		sh.mu.Unlock()
	}
	return out
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
	// Capture is how long Sorted spent reading the shards: the only part
	// of it that holds their locks, and so all a writer can stall on.
	Capture time.Duration
}

// Sorted returns the contents in radix-key order. Between two calls each
// shard logs what it admits and evicts; when every log is intact and
// the admissions number at most an eighth of the contents, Sorted sorts
// only the logged values and merges them into the previous view in one
// linear pass. Otherwise, or on the first call, it copies and sorts the
// contents in full. Either way Values is bit for bit what
// fsort.Float64s would make of a Snapshot taken at the same moments, so
// a fit built from it is the fit a sorted Snapshot would give. Each
// shard is locked only while its log or its contents are read, and
// concurrent calls are serialised.
func (s *ShardedReservoir) Sorted() View {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	var capture time.Duration
	if s.view != nil {
		start := time.Now()
		intact := s.gatherLogs()
		capture = time.Since(start)
		if intact {
			if v, ok := s.mergeLogs(); ok {
				v.Capture = capture
				return v
			}
		}
	}
	start := time.Now()
	out := s.copyShards(true)
	capture += time.Since(start)
	fsort.Float64s(out)
	s.view = out
	return View{Values: out, Merged: -1, Capture: capture}
}

// mergeLogs makes the next view from the previous one and the gathered
// logs. It reports false, leaving the view alone, when the admissions
// exceed 1/mergeDivisor of the contents, or when the view or the
// admissions hold a NaN: NaNs sort first in sort.Float64s order rather
// than by key.
func (s *ShardedReservoir) mergeLogs() (View, bool) {
	merged := len(s.admitted) + len(s.evicted)
	if merged == 0 {
		return View{Values: s.view}, true
	}
	if n := len(s.view) + len(s.admitted) - len(s.evicted); len(s.admitted) > n/mergeDivisor {
		return View{}, false
	}
	fsort.Float64s(s.admitted)
	fsort.Float64s(s.evicted)
	if startsWithNaN(s.view) || startsWithNaN(s.admitted) {
		return View{}, false
	}
	s.view = mergeSorted(s.view, s.admitted, s.evicted)
	return View{Values: s.view, Merged: merged}, true
}

// gatherLogs moves every shard's replacement log into s.admitted and
// s.evicted, restarting each under its shard's lock. It reports false,
// having gathered only part of them, when some shard's log has stopped.
func (s *ShardedReservoir) gatherLogs() bool {
	s.admitted, s.evicted = s.admitted[:0], s.evicted[:0]
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		rv := sh.res
		intact := rv.logging
		if intact {
			s.admitted = append(s.admitted, rv.admitted...)
			s.evicted = append(s.evicted, rv.evicted...)
			rv.restartLog()
		}
		sh.mu.Unlock()
		if !intact {
			return false
		}
	}
	return true
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

// Len returns how many elements are currently resident across all shards.
func (s *ShardedReservoir) Len() int { return int(s.held.Load()) }

// Seen returns how many elements have been offered.
func (s *ShardedReservoir) Seen() int { return int(s.seen.Load()) }

// Shards returns the stripe count.
func (s *ShardedReservoir) Shards() int { return len(s.shards) }

// Capacity returns the total slot count across shards.
func (s *ShardedReservoir) Capacity() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].res.capacity
	}
	return total
}

// Reset drops all contents and counts, as Reservoir.Reset does. It locks
// shards one at a time, so it may interleave with concurrent Adds; the
// counters are reset last so Len never reads higher than reality.
func (s *ShardedReservoir) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.res.Reset()
		sh.mu.Unlock()
	}
	s.seen.Store(0)
	s.held.Store(0)
	s.cursor.Store(0)
}
