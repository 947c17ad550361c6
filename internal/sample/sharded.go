package sample

import (
	"sync"
	"sync/atomic"

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
// any one writer for at most one shard's memcpy — this is the only point
// where the refit path touches the ingest locks.
func (s *ShardedReservoir) Snapshot() []float64 {
	out := make([]float64, 0, s.held.Load()+int64(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = sh.res.AppendTo(out)
		sh.mu.Unlock()
	}
	return out
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
