package sample

import (
	"math"
	"sync"
	"testing"

	"selest/internal/fsort"
	"selest/internal/xrand"
)

// TestSnapshotIsolation pins the contract the off-lock refit path depends
// on: mutating the reservoir after Snapshot must not show through the
// returned slice, and mutating the slice must not corrupt the reservoir.
func TestSnapshotIsolation(t *testing.T) {
	rv := NewReservoir(xrand.New(1), 8)
	for i := 0; i < 8; i++ {
		rv.Add(float64(i))
	}
	snap := rv.Snapshot()
	want := append([]float64(nil), snap...)
	for i := 0; i < 1000; i++ {
		rv.Add(1e9 + float64(i))
	}
	for i := range snap {
		if snap[i] != want[i] {
			t.Fatalf("snapshot[%d] changed after reservoir mutation: %v -> %v", i, want[i], snap[i])
		}
	}
	snap[0] = -1
	for _, v := range rv.Snapshot() {
		if v == -1 {
			t.Fatal("mutating the snapshot leaked into the reservoir")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rv := NewReservoir(xrand.New(2), 16)
	for i := 0; i < 100; i++ {
		rv.Add(float64(i))
	}
	cl := rv.Clone()
	if cl.Seen() != rv.Seen() || cl.Len() != rv.Len() {
		t.Fatalf("clone counts differ: seen %d/%d len %d/%d", cl.Seen(), rv.Seen(), cl.Len(), rv.Len())
	}
	// Same RNG state: fed identical streams, both evolve identically.
	for i := 100; i < 500; i++ {
		rv.Add(float64(i))
		cl.Add(float64(i))
	}
	a, b := rv.Snapshot(), cl.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Mutating one does not touch the other.
	rv.Reset()
	if cl.Len() == 0 {
		t.Fatal("resetting the original drained the clone")
	}
}

// TestShardedFillsExactlyAtCapacity pins the trigger property the online
// estimator's first refit relies on: the merged length reaches capacity
// exactly on the capacity-th insert, with no shard evicting early.
func TestShardedFillsExactlyAtCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{100, 1}, {100, 8}, {97, 8}, {64, 7}, {2000, 16}, {5, 8},
	} {
		s := NewSharded(1, tc.capacity, tc.shards)
		for i := 0; i < tc.capacity-1; i++ {
			if _, evicted := s.Add(float64(i)); evicted {
				t.Fatalf("cap %d shards %d: eviction at insert %d while filling", tc.capacity, tc.shards, i)
			}
		}
		if s.Len() != tc.capacity-1 {
			t.Fatalf("cap %d shards %d: Len = %d before last fill insert", tc.capacity, tc.shards, s.Len())
		}
		s.Add(float64(tc.capacity))
		if s.Len() != tc.capacity {
			t.Fatalf("cap %d shards %d: Len = %d at capacity", tc.capacity, tc.shards, s.Len())
		}
		if s.Capacity() != tc.capacity {
			t.Fatalf("cap %d shards %d: Capacity = %d", tc.capacity, tc.shards, s.Capacity())
		}
		// Once full, Len stays pinned at capacity.
		for i := 0; i < 3*tc.capacity; i++ {
			s.Add(float64(i))
		}
		if s.Len() != tc.capacity {
			t.Fatalf("cap %d shards %d: Len = %d after overflow", tc.capacity, tc.shards, s.Len())
		}
		if s.Seen() != 4*tc.capacity {
			t.Fatalf("cap %d shards %d: Seen = %d", tc.capacity, tc.shards, s.Seen())
		}
	}
}

// TestShardedOneShardMatchesReservoir pins that S = 1 consumes the RNG in
// the same order as the plain reservoir, so seeded online streams sample
// identically before and after the sharded ingest path landed.
func TestShardedOneShardMatchesReservoir(t *testing.T) {
	const seed, capacity, n = 7, 50, 5000
	plain := NewReservoir(xrand.New(seed), capacity)
	sharded := NewSharded(seed, capacity, 1)
	r := xrand.New(99)
	for i := 0; i < n; i++ {
		v := r.Float64()
		plain.Add(v)
		sharded.Add(v)
	}
	a, b := plain.Snapshot(), sharded.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("contents diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestShardedUniformity feeds a long 0..1 stream and checks the merged
// sample's mean stays near 1/2 — a smoke test that striping does not bias
// the sample toward any stream region.
func TestShardedUniformity(t *testing.T) {
	s := NewSharded(3, 2000, 8)
	r := xrand.New(4)
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	snap := s.Snapshot()
	if len(snap) != 2000 {
		t.Fatalf("merged snapshot has %d elements", len(snap))
	}
	sum := 0.0
	for _, v := range snap {
		sum += v
	}
	if mean := sum / float64(len(snap)); math.Abs(mean-0.5) > 0.03 {
		t.Fatalf("merged sample mean %v, want ~0.5", mean)
	}
}

// TestShardedConcurrentAdds hammers Add and Snapshot from many goroutines
// under the race detector and checks the counters add up.
func TestShardedConcurrentAdds(t *testing.T) {
	const writers, perWriter = 8, 5000
	s := NewSharded(5, 512, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(w))
			for i := 0; i < perWriter; i++ {
				s.Add(r.Float64())
				if i%1024 == 0 {
					if got := len(s.Snapshot()); got > 512 {
						panic("snapshot larger than capacity")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Seen() != writers*perWriter {
		t.Fatalf("Seen = %d, want %d", s.Seen(), writers*perWriter)
	}
	if s.Len() != 512 {
		t.Fatalf("Len = %d, want full", s.Len())
	}
	if got := len(s.Snapshot()); got != 512 {
		t.Fatalf("merged snapshot %d elements", got)
	}
	s.Reset()
	if s.Len() != 0 || s.Seen() != 0 || len(s.Snapshot()) != 0 {
		t.Fatal("reset did not drain the sharded reservoir")
	}
}

// TestAddBatchMatchesAdd pins run-batched admission against the
// per-element path: the same seeded stream fed as random-length AddBatch
// runs and as one Add per element leaves identical contents, counts and
// RNG state, and the kept/evicted tallies agree.
func TestAddBatchMatchesAdd(t *testing.T) {
	const capacity, n = 97, 6000
	for _, shards := range []int{1, 3} {
		r := xrand.New(21)
		stream := make([]float64, n)
		for i := range stream {
			stream[i] = r.Float64()
		}
		one := NewSharded(17, capacity, shards)
		batched := NewSharded(17, capacity, shards)
		var keptOne, evictedOne, keptBatch, evictedBatch int
		for _, v := range stream {
			kept, evicted := one.Add(v)
			if kept {
				keptOne++
			}
			if evicted {
				evictedOne++
			}
		}
		runs := xrand.New(5)
		for i := 0; i < n; {
			m := min(1+runs.Intn(300), n-i)
			kept, evicted := batched.AddBatch(stream[i : i+m])
			keptBatch += kept
			evictedBatch += evicted
			i += m
		}
		if keptOne != keptBatch || evictedOne != evictedBatch {
			t.Fatalf("shards %d: kept/evicted %d/%d by Add, %d/%d by AddBatch",
				shards, keptOne, evictedOne, keptBatch, evictedBatch)
		}
		// Identical RNG state shows in what the next elements displace.
		for i := 0; i < 500; i++ {
			one.Add(float64(-i))
			batched.AddBatch([]float64{float64(-i)})
		}
		if one.Seen() != batched.Seen() || one.Len() != batched.Len() {
			t.Fatalf("shards %d: seen %d/%d len %d/%d", shards, one.Seen(), batched.Seen(), one.Len(), batched.Len())
		}
		a, b := one.Snapshot(), batched.Snapshot()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("shards %d: contents diverge at %d: %v vs %v", shards, i, a[i], b[i])
			}
		}
	}
}

// TestAddBatchConcurrentSnapshot runs AddBatch writers against Snapshot
// and Count readers under the race detector: readers never see more than
// capacity, and the counters add up once the writers finish.
func TestAddBatchConcurrentSnapshot(t *testing.T) {
	const writers, perWriter, capacity = 4, 20000, 512
	s := NewSharded(5, capacity, 3)
	var writing, reading sync.WaitGroup
	var keptTotal, evictedTotal [writers]int
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			r := xrand.New(uint64(w))
			buf := make([]float64, 0, 700)
			for i := 0; i < perWriter; {
				m := min(1+r.Intn(700), perWriter-i)
				buf = buf[:0]
				for j := 0; j < m; j++ {
					buf = append(buf, r.Float64())
				}
				kept, evicted := s.AddBatch(buf)
				keptTotal[w] += kept
				evictedTotal[w] += evicted
				i += m
			}
		}(w)
	}
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := len(s.Snapshot()); got > capacity {
					t.Errorf("snapshot of %d elements exceeds capacity %d", got, capacity)
					return
				}
				if in, total := s.Count(0.25, 0.75); in > total || total > capacity {
					t.Errorf("Count = (%d, %d) with capacity %d", in, total, capacity)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if s.Seen() != writers*perWriter {
		t.Fatalf("Seen = %d, want %d", s.Seen(), writers*perWriter)
	}
	if s.Len() != capacity || len(s.Snapshot()) != capacity {
		t.Fatalf("Len = %d, snapshot %d, want full at %d", s.Len(), len(s.Snapshot()), capacity)
	}
	kept, evicted := 0, 0
	for w := range keptTotal {
		kept += keptTotal[w]
		evicted += evictedTotal[w]
	}
	if kept-evicted != capacity {
		t.Fatalf("kept %d − evicted %d = %d residents, want %d", kept, evicted, kept-evicted, capacity)
	}
	in, total := s.Count(0.25, 0.75)
	want := 0
	for _, v := range s.Snapshot() {
		if v >= 0.25 && v <= 0.75 {
			want++
		}
	}
	if in != want || total != capacity {
		t.Fatalf("Count = (%d, %d), snapshot count (%d, %d)", in, total, want, capacity)
	}
}

// checkSorted takes a Sorted view and pins it bit for bit to what
// fsort.Float64s makes of a Snapshot of the same contents.
func checkSorted(t *testing.T, s *ShardedReservoir, step string) View {
	t.Helper()
	v := s.Sorted()
	want := s.Snapshot()
	fsort.Float64s(want)
	if len(v.Values) != len(want) {
		t.Fatalf("%s: view holds %d values, snapshot %d", step, len(v.Values), len(want))
	}
	for i := range want {
		if math.Float64bits(v.Values[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: view[%d] = %v, sorted snapshot has %v (merged %d)", step, i, v.Values[i], want[i], v.Merged)
		}
	}
	return v
}

// readmissions counts values the shards' logs show were admitted and then
// evicted again since the last view. It needs a stream of distinct
// values to tell one admission from another.
func readmissions(s *ShardedReservoir) int {
	n := 0
	for i := range s.shards {
		rv := s.shards[i].res
		admitted := make(map[float64]bool, len(rv.admitted))
		for _, x := range rv.admitted {
			admitted[x] = true
		}
		for _, x := range rv.evicted {
			if admitted[x] {
				n++
			}
		}
	}
	return n
}

// TestSortedMatchesSnapshot pins Sorted to a sorted Snapshot bit for bit
// on both of its paths, at one shard and three: integer data with heavy
// duplicates, −0, +0 and ±Inf; values admitted and evicted again between
// two views; merges of admissions alone while the reservoir fills; a
// Reset between views; deltas past the merge bound; and a NaN, which
// sorts first and so is never merged by key.
func TestSortedMatchesSnapshot(t *testing.T) {
	const capacity = 400
	negZero := math.Copysign(0, -1)
	for _, shards := range []int{1, 3} {
		s := NewSharded(3, capacity, shards)
		r := xrand.New(uint64(10 + shards))
		dups := func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch r.Intn(40) {
				case 0:
					xs[i] = negZero
				case 1:
					xs[i] = 0
				case 2:
					xs[i] = math.Inf(1)
				case 3:
					xs[i] = math.Inf(-1)
				default:
					xs[i] = float64(r.Intn(25) - 12)
				}
			}
			return xs
		}
		distinct := 0.0
		unique := func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				distinct++
				xs[i] = distinct + 0.5
			}
			return xs
		}
		merges, fulls, readmitted := 0, 0, 0
		step := func(name string, xs []float64) {
			s.AddBatch(xs)
			if v := checkSorted(t, s, name); v.Merged < 0 {
				fulls++
			} else {
				merges++
			}
		}

		step("half full", dups(capacity/2))
		step("filling", dups(20))
		step("past the bound", dups(25*capacity))
		for round := 0; round < 40; round++ {
			step("steady", dups(1+r.Intn(1500)))
		}
		s.Reset()
		step("after reset", dups(10))
		step("refilling", dups(140))
		step("refilled", dups(10))
		// While the reservoir fills every value is admitted.
		step("NaN admitted", []float64{math.NaN(), 3})
		step("NaN resident", dups(10))
		step("distinct fill", unique(20*capacity))
		for round := 0; round < 20; round++ {
			s.AddBatch(unique(300 + r.Intn(600)))
			readmitted += readmissions(s)
			step("distinct", nil)
		}
		if merges == 0 || fulls == 0 {
			t.Fatalf("shards %d: %d merges and %d full sorts; both paths must run", shards, merges, fulls)
		}
		if readmitted == 0 {
			t.Fatalf("shards %d: no value was admitted and evicted again between two views", shards)
		}
	}
}

// TestSortedDuringAddBatch takes Sorted views while AddBatch writers run,
// under the race detector: every view is in key order and never holds
// more than capacity values, and once the writers stop a last view
// matches the sorted Snapshot bit for bit.
func TestSortedDuringAddBatch(t *testing.T) {
	const writers, perWriter, capacity = 3, 20000, 4096
	s := NewSharded(8, capacity, 3)
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			r := xrand.New(uint64(w))
			buf := make([]float64, 0, 200)
			for i := 0; i < perWriter; {
				m := min(1+r.Intn(200), perWriter-i)
				buf = buf[:0]
				for j := 0; j < m; j++ {
					buf = append(buf, float64(r.Intn(1000)))
				}
				s.AddBatch(buf)
				i += m
			}
		}(w)
	}
	stop := make(chan struct{})
	reading.Add(1)
	go func() {
		defer reading.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := s.Sorted()
			if len(v.Values) > capacity {
				t.Errorf("view of %d values exceeds capacity %d", len(v.Values), capacity)
				return
			}
			for i := 1; i < len(v.Values); i++ {
				if fsort.Key(v.Values[i]) < fsort.Key(v.Values[i-1]) {
					t.Errorf("view out of key order at %d", i)
					return
				}
			}
		}
	}()
	writing.Wait()
	close(stop)
	reading.Wait()
	checkSorted(t, s, "after the writers")
}
