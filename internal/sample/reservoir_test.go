package sample

import (
	"math"
	"runtime"
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

// TestReservoirConcurrentAdds hammers Add and Snapshot from many
// goroutines under the race detector and checks the counters add up.
func TestReservoirConcurrentAdds(t *testing.T) {
	const writers, perWriter = 8, 5000
	s := NewReservoir(xrand.New(5), 512)
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
		t.Fatalf("snapshot %d elements", got)
	}
}

// TestAddBatchMatchesAdd pins run-batched admission against the
// per-element path: the same seeded stream fed as AddBatch runs and as
// one Add per element leaves identical contents, counts, replacement
// logs and RNG state, and the kept/evicted tallies agree. The runs start
// with one that half fills the reservoir, one that crosses from filling
// to full, and one of several touch-ahead chunks, then take random
// lengths; sorted views taken between runs keep the replacement log on.
func TestAddBatchMatchesAdd(t *testing.T) {
	const capacity, n = 97, 6000
	r := xrand.New(21)
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = r.Float64()
	}
	one := NewReservoir(xrand.New(17), capacity)
	batched := NewReservoir(xrand.New(17), capacity)
	var keptOne, evictedOne, keptBatch, evictedBatch, logged int
	runs := xrand.New(5)
	lengths := []int{capacity / 2, capacity, 3*touchAhead + 5}
	for i, run := 0, 0; i < n; run++ {
		m := 1 + runs.Intn(300)
		if run < len(lengths) {
			m = lengths[run]
		}
		m = min(m, n-i)
		for _, v := range stream[i : i+m] {
			full := one.Len() == capacity
			if one.Add(v) {
				keptOne++
				if full {
					evictedOne++
				}
			}
		}
		kept, evicted := batched.AddBatch(stream[i : i+m])
		keptBatch += kept
		evictedBatch += evicted
		i += m
		if !sameBits(one.admitted, batched.admitted) || !sameBits(one.evicted, batched.evicted) {
			t.Fatalf("run %d: replacement logs diverge: admitted %v / %v, evicted %v / %v",
				run, one.admitted, batched.admitted, one.evicted, batched.evicted)
		}
		logged += len(batched.evicted)
		if run%4 == 0 {
			one.Sorted()
			batched.Sorted()
		}
	}
	if keptOne != keptBatch || evictedOne != evictedBatch {
		t.Fatalf("kept/evicted %d/%d by Add, %d/%d by AddBatch", keptOne, evictedOne, keptBatch, evictedBatch)
	}
	if logged == 0 {
		t.Fatal("no run logged an eviction; the replacement log was never on")
	}
	// Identical RNG state shows in what the next elements displace.
	for i := 0; i < 500; i++ {
		one.Add(float64(-i))
		batched.AddBatch([]float64{float64(-i)})
	}
	if one.Seen() != batched.Seen() || one.Len() != batched.Len() {
		t.Fatalf("seen %d/%d len %d/%d", one.Seen(), batched.Seen(), one.Len(), batched.Len())
	}
	a, b := one.Snapshot(), batched.Snapshot()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("contents diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAddBatchConcurrentSnapshot runs AddBatch writers against Snapshot
// and Count readers under the race detector: readers never see more than
// capacity, and the counters add up once the writers finish.
func TestAddBatchConcurrentSnapshot(t *testing.T) {
	const writers, perWriter, capacity = 4, 20000, 512
	s := NewReservoir(xrand.New(5), capacity)
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
func checkSorted(t *testing.T, s *Reservoir, step string) View {
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

// readmissions counts values the log shows were admitted and then
// evicted again since the last view. It needs a stream of distinct
// values to tell one admission from another.
func readmissions(rv *Reservoir) int {
	admitted := make(map[float64]bool, len(rv.admitted))
	for _, x := range rv.admitted {
		admitted[x] = true
	}
	n := 0
	for _, x := range rv.evicted {
		if admitted[x] {
			n++
		}
	}
	return n
}

// TestSortedMatchesSnapshot pins Sorted to a sorted Snapshot bit for bit
// on both of its paths: integer data with heavy duplicates, −0, +0 and
// ±Inf; values admitted and evicted again between two views; merges of
// admissions alone while the reservoir fills; an empty Restore between
// views; deltas past the merge bound; and a NaN, which sorts first and
// so is never merged by key.
func TestSortedMatchesSnapshot(t *testing.T) {
	const capacity = 400
	negZero := math.Copysign(0, -1)
	s := NewReservoir(xrand.New(3), capacity)
	r := xrand.New(11)
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
	s.Restore(nil, 0)
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
		t.Fatalf("%d merges and %d full sorts; both paths must run", merges, fulls)
	}
	if readmitted == 0 {
		t.Fatal("no value was admitted and evicted again between two views")
	}
}

// TestSortedDuringAddBatch takes Sorted views while AddBatch writers run,
// under the race detector: every view is in key order and never holds
// more than capacity values, and once the writers stop a last view
// matches the sorted Snapshot bit for bit.
func TestSortedDuringAddBatch(t *testing.T) {
	const writers, perWriter, capacity = 3, 20000, 4096
	s := NewReservoir(xrand.New(8), capacity)
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

// TestRestoreKeepsStreamLength pins Restore against a reservoir that
// took the whole stream: restoring its sample with the stream length
// leaves the same contents over the same stream, so the elements that
// follow are admitted as rarely as the live reservoir admits them, not
// as often as a reservoir that saw the sample alone would.
func TestRestoreKeepsStreamLength(t *testing.T) {
	const capacity, seen = 10, 1001
	stream := make([]float64, 2*seen)
	for i := range stream {
		stream[i] = float64(i)
	}
	live := NewReservoir(xrand.New(5), capacity)
	live.AddBatch(stream[:seen])
	restored := NewReservoir(xrand.New(9), capacity)
	restored.Add(-1) // Restore replaces whatever the reservoir held
	restored.Restore(live.Snapshot(), seen)
	if restored.Seen() != seen || restored.Len() != capacity {
		t.Fatalf("restored: %d values over a stream of %d, want %d over %d", restored.Len(), restored.Seen(), capacity, seen)
	}
	// Over the next seen elements algorithm R keeps about
	// capacity·ln 2 ≈ 7 of them; counting the sample alone as the
	// stream would keep about capacity·ln(seen/capacity) ≈ 46.
	for _, rv := range []*Reservoir{live, restored} {
		if kept, _ := rv.AddBatch(stream[seen:]); kept > 20 {
			t.Fatalf("kept %d of the %d elements after a stream of %d", kept, seen, seen)
		}
		if rv.Seen() != 2*seen || rv.Len() != capacity {
			t.Fatalf("%d values over a stream of %d, want %d over %d", rv.Len(), rv.Seen(), capacity, 2*seen)
		}
	}
	// A stream length below the sample, as from snapshots that predate
	// it, counts the sample alone.
	restored.Restore([]float64{1, 2, 3, 4}, 0)
	if restored.Seen() != 4 || restored.Len() != 4 {
		t.Fatalf("restored: %d values over a stream of %d, want 4 over 4", restored.Len(), restored.Seen())
	}
}

// TestReservoirMemoryFollowsContents pins that a reservoir takes memory
// as it admits elements, not for its capacity up front: one of capacity
// 2^27 (1 GiB of float64s) holding a few elements grows the heap by under
// 1 MiB. Filled by Add, by AddBatch runs or by Restore, the contents
// never grow past capacity.
func TestReservoirMemoryFollowsContents(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	big := NewReservoir(xrand.New(1), 1<<27)
	big.AddBatch([]float64{1, 2, 3})
	big.Add(4)
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a reservoir holding %d elements grew the heap by %d bytes", big.Len(), grew)
	}
	runtime.KeepAlive(big)

	const capacity = 1000
	stream := make([]float64, 3*capacity)
	for i := range stream {
		stream[i] = float64(i)
	}
	byAdd := NewReservoir(xrand.New(2), capacity)
	for _, x := range stream {
		byAdd.Add(x)
	}
	byRuns := NewReservoir(xrand.New(2), capacity)
	for off := 0; off < len(stream); off += 333 {
		byRuns.AddBatch(stream[off:min(off+333, len(stream))])
	}
	restored := NewReservoir(xrand.New(3), capacity)
	restored.Restore(stream[:capacity], len(stream))
	for name, rv := range map[string]*Reservoir{"Add": byAdd, "AddBatch": byRuns, "Restore": restored} {
		if rv.Len() != capacity || cap(rv.items) != capacity {
			t.Fatalf("%s: %d elements in room for %d, want %d in %d", name, rv.Len(), cap(rv.items), capacity, capacity)
		}
	}
}

// BenchmarkRefitAdmission times the admission that feeds the refits, as
// selestd's drainers run it on ingest-refit: 1024-value runs into eight
// full 2^18-value reservoirs in turn, with no refit, so no sorted view
// runs and the replacement log stays off. A reservoir that has seen
// 2^20 values is restored, untimed, to a stream length of 2^19, which
// keeps the share of a run admitted between a quarter and a half at any
// b.N.
func BenchmarkRefitAdmission(b *testing.B) {
	const capacity, run, pool = 1 << 18, 1024, 8
	stream := make([]float64, 1<<16)
	r := xrand.New(7)
	for i := range stream {
		stream[i] = r.Float64()
	}
	rvs := make([]*Reservoir, pool)
	for i := range rvs {
		rvs[i] = NewReservoir(xrand.New(uint64(i)+1), capacity)
		for rvs[i].Seen() < 1<<19 {
			rvs[i].AddBatch(stream)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv := rvs[i%pool]
		if rv.Seen() >= 1<<20 {
			b.StopTimer()
			rv.Restore(rv.Snapshot(), 1<<19)
			b.StartTimer()
		}
		off := i * run % len(stream)
		rv.AddBatch(stream[off : off+run])
	}
}
